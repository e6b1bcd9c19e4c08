"""Regenerates Fig. 6: delay difference VNS vs upstreams (Sec. 4.3).

Paper shape: in 10-65% of cases VNS is similar or better; Singapore is
the best vantage (~65%, direct dedicated links); 87-93% of destinations
are not stretched by more than 50 ms.
"""

from repro.experiments import fig6_delay

from .conftest import record_row, run_once


def test_bench_fig6_delay(benchmark, medium_world, show):
    result = run_once(benchmark, fig6_delay.run, medium_world)
    show(result.render())
    record_row("fig6", **result.to_row())

    # --- shape assertions -----------------------------------------------
    for code in ("SIN", "AMS", "SJS"):
        assert result.measured(code) > 50
        fraction_ok = result.fraction_vns_not_worse(code)
        # "In 10 to 65% of the cases ... VNS is similar or better"; our
        # dedicated circuits are competitive, so allow a generous band.
        assert 0.10 <= fraction_ok <= 0.97, code
        # Cold potato does not stretch delay much.
        assert result.fraction_within(code, 50.0) > 0.70, code
    # Singapore's direct links keep it at least as competitive as AMS.
    assert result.fraction_vns_not_worse("SIN") >= result.fraction_vns_not_worse("AMS") - 0.05
