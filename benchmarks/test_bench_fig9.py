"""Regenerates Fig. 9: video-loss CCDFs, VNS vs transit (Sec. 5.1.1).

Paper shape: VNS ("I-") curves sit below transit ("T-") everywhere; to AP
destinations 10/5/43% of transit streams from Amsterdam/San Jose/Sydney
exceed 0.15% loss while VNS stays below ~1%; jitter ≤10 ms for 99% of
1080p and 97% of 720p streams.

Scale note: the paper's own size — 576 videos/client/definition/day for
two weeks, i.e. half-hourly rounds for 14 simulated days (64,512
sessions); the row records the session count and the campaign's wall
time.
"""

import time

from repro.experiments import fig9_video_loss
from repro.geo.regions import PopRegion

from .conftest import record_row, run_once


def test_bench_fig9_video_loss(benchmark, medium_world, show):
    start = time.perf_counter()
    result = run_once(
        benchmark,
        fig9_video_loss.run,
        medium_world,
        days=14,
        minutes_between_rounds=30.0,
        include_720p=True,
    )
    wall_s = time.perf_counter() - start
    show(fig9_video_loss.render(result))

    # --- shape assertions (DESIGN.md §4, fig9) ---------------------------
    # VNS stochastically dominates transit for every measured pair.
    for client in ("AMS", "SJS", "SYD"):
        for region in (PopRegion.AP, PopRegion.EU, PopRegion.NA):
            transit = result.fraction_over(client, region, "T")
            vns = result.fraction_over(client, region, "I")
            assert vns <= transit, (client, region)
    # Transit to AP is bad; Sydney worst (paper: 10/5/43%).
    assert result.fraction_over("AMS", PopRegion.AP, "T") > 0.04
    assert result.fraction_over("SYD", PopRegion.AP, "T") > 0.20
    assert result.fraction_over("SYD", PopRegion.AP, "T") > result.fraction_over(
        "AMS", PopRegion.AP, "T"
    )
    # VNS keeps complaint-level loss below ~1% of streams everywhere.
    for client in ("AMS", "SJS", "SYD"):
        for region in PopRegion:
            assert result.fraction_over(client, region, "I") < 0.03
    # Intra-region VNS loss ~ zero.
    assert result.fraction_over("AMS", PopRegion.EU, "I") < 0.01
    # Jitter summary (Sec. 5.1.1).
    from repro.media.codec import PROFILE_1080P, PROFILE_720P

    assert result.jitter_fraction_below(PROFILE_1080P, 10.0) > 0.95
    assert result.jitter_fraction_below(PROFILE_720P, 10.0) > 0.90
    assert result.jitter_fraction_below(PROFILE_1080P, 20.0) > 0.99
    record_row(
        "fig9",
        syd_ap_transit_frac_over=result.fraction_over("SYD", PopRegion.AP, "T"),
        ams_ap_transit_frac_over=result.fraction_over("AMS", PopRegion.AP, "T"),
        jitter_1080p_frac_below_10ms=result.jitter_fraction_below(
            PROFILE_1080P, 10.0
        ),
        sessions=len(result.campaign),
        wall_s=wall_s,
    )
