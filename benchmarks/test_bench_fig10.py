"""Regenerates Fig. 10: the nature of loss (Sec. 5.1.2).

Paper shape (Amsterdam client, 1080p, all six echo servers): through
upstreams there is a random-loss baseline (loss grows with the number of
lossy 5-second slots) plus two bursty outlier populations — upper-left
(large loss, few slots) and upper-right (large loss throughout).  VNS
eliminates multi-slot loss and both outlier sets.

Scale note: the paper's schedule — half-hourly rounds for 14 simulated
days (8,064 Amsterdam sessions); the row records the session count and
the campaign's wall time.
"""

import time

import numpy as np

from repro.experiments import fig10_loss_nature
from repro.experiments.fig10_loss_nature import LossClass

from .conftest import record_row, run_once


def test_bench_fig10_loss_nature(benchmark, medium_world, show):
    start = time.perf_counter()
    result = run_once(
        benchmark,
        fig10_loss_nature.run,
        medium_world,
        days=14,
        minutes_between_rounds=30.0,
    )
    wall_s = time.perf_counter() - start
    show(fig10_loss_nature.render(result))

    # --- shape assertions -----------------------------------------------
    # Transit shows all three loss populations.
    assert result.count("T", LossClass.RANDOM_BASELINE) > 0
    assert result.count("T", LossClass.SHORT_BURST) > 0
    assert result.count("T", LossClass.LONG_BURST) > 0
    # The random baseline is roughly linear: more lossy slots, more loss.
    baseline = [
        (slots, loss)
        for slots, loss in result.scatter("T")
        if 0 < slots and loss < 0.15
    ]
    if len(baseline) >= 10:
        slots = np.array([s for s, _ in baseline], dtype=float)
        loss = np.array([l for _, l in baseline])
        correlation = np.corrcoef(slots, loss)[0, 1]
        assert correlation > 0.4
    # VNS eliminates bursty outliers entirely and multi-slot loss mostly.
    assert result.count("I", LossClass.SHORT_BURST) == 0
    assert result.count("I", LossClass.LONG_BURST) == 0
    assert result.multi_slot_loss_fraction("I") < 0.5 * result.multi_slot_loss_fraction("T")
    assert result.count("I", LossClass.NO_LOSS) / result.sessions("I") > 0.85
    record_row(
        "fig10",
        transit_short_bursts=result.count("T", LossClass.SHORT_BURST),
        transit_long_bursts=result.count("T", LossClass.LONG_BURST),
        vns_no_loss_fraction=result.count("I", LossClass.NO_LOSS)
        / result.sessions("I"),
        sessions=result.sessions("T") + result.sessions("I"),
        wall_s=wall_s,
    )
