"""Regenerates Fig. 11: last-mile loss and geography (Sec. 5.2.2).

Paper shape: loss grows with geographic distance (EU→AP well above
AP→AP; AP→EU well above EU→EU); SJS→AP is on par with AP-local probing
(west-coast IXP peering); London→EU is anomalously high because its main
upstream is US-based.

Scale note: the paper probed 600 hosts every 10 min for 3 weeks; this
bench probes 10 hosts/type/region every 30 min for 2 simulated days.
"""

import pytest

from repro.experiments import fig11_lastmile
from repro.experiments.lastmile import run_lastmile_campaign
from repro.geo.regions import WorldRegion

from .conftest import record_row, run_once

AP = WorldRegion.ASIA_PACIFIC
EU = WorldRegion.EUROPE
NA = WorldRegion.NORTH_CENTRAL_AMERICA


@pytest.fixture(scope="module")
def campaign(medium_world):
    return run_lastmile_campaign(
        medium_world,
        hosts_per_type_per_region=10,
        days=2,
        minutes_between_rounds=30.0,
    )


def test_bench_fig11_lastmile(benchmark, campaign, show):
    result = run_once(benchmark, fig11_lastmile.run, campaign)
    show(fig11_lastmile.render(result))

    # --- shape assertions -----------------------------------------------
    # AP destinations lose the most from everywhere.
    from repro.experiments.lastmile import LASTMILE_POPS

    for pop_code in LASTMILE_POPS:
        assert result.loss(pop_code, AP) > result.loss(pop_code, EU), pop_code
    # Distance effect toward EU: AP vantage ≫ EU vantage (paper 2.1-14.2x).
    assert result.region_average("AP", EU) > 1.4 * result.region_average("EU", EU)
    # Distance effect toward AP (paper 1.6-3.3x, EU vs AP-local).
    ap_local = (result.loss("HK", AP) + result.loss("SIN", AP)) / 2
    assert result.region_average("EU", AP) > 1.05 * ap_local
    # SJS→AP comparable to AP-local probing (west coast peering).
    assert result.loss("SJS", AP) < 2.0 * ap_local
    # London anomaly: LON→EU above the other EU PoPs (paper >2x).
    assert result.london_eu_ratio() > 1.15
    record_row(
        "fig11",
        ap_to_eu_over_eu_local=result.region_average("AP", EU)
        / result.region_average("EU", EU),
        london_eu_ratio=result.london_eu_ratio(),
    )
