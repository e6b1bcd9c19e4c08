#!/usr/bin/env python3
"""Regenerate every paper figure/table in one run and print the report.

The full reproduction harness, end to end: builds the world(s), runs all
ten figure experiments (Figs. 3-7, 9-12, Table 1) plus the
population campaign and the failover suite, and prints each one's rows
(each module's ``run`` then its ``render``).  This is
the same code the benchmarks time — here it runs at a smaller scale by
default so the whole report takes a few minutes.

Run:
    python examples/paper_report.py [small|medium]
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    build_world,
    campaign,
    failover,
    fig3_precision,
    fig4_egress,
    fig5_neighbors,
    fig6_delay,
    fig7_incoming,
    fig9_video_loss,
    fig10_loss_nature,
    fig11_lastmile,
    fig12_diurnal,
    table1_astype,
)
from repro.experiments.lastmile import run_lastmile_campaign


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    t0 = time.time()
    print(f"Building {scale} world (geo routing + GeoIP error injection) ...")
    error_world = build_world(scale, seed=42, geoip_errors=True)
    print(f"Building {scale} world (exact GeoIP, with hot-potato baseline) ...")
    world = build_world(scale, seed=42, with_before=True)
    print(f"  worlds ready in {time.time() - t0:.0f}s")

    banner("Section 4.1 — Fig 3: geo-based routing precision")
    result3 = fig3_precision.run(error_world)
    print(fig3_precision.render(result3))
    congruence = fig3_precision.as_congruence(error_world, result3)
    print(
        f"  AS congruence: >=25% agreement in "
        f"{congruence.fraction_of_ases_with_agreement(0.25) * 100:.0f}% of ASes "
        f"(paper: 99%); >=90% in "
        f"{congruence.fraction_of_ases_with_agreement(0.9) * 100:.0f}% (paper: 60%)"
    )

    banner("Section 4.2.1 — Fig 4: egress selection before/after")
    print(fig4_egress.render(fig4_egress.run(world)))

    banner("Section 4.2.2 — Fig 5: transit vs peer routes")
    print(fig5_neighbors.render(fig5_neighbors.run(world)))

    banner("Section 4.3 — Fig 6: delay difference VNS vs upstreams")
    print(fig6_delay.run(world).render())

    banner("Section 4.4 — Fig 7: incoming anycast traffic")
    print(fig7_incoming.render(fig7_incoming.run(world, requests=2000)))

    banner("Section 5.1 — Fig 9: video loss, VNS vs transit")
    result9 = fig9_video_loss.run(
        world, days=2, minutes_between_rounds=60.0, include_720p=True
    )
    print(fig9_video_loss.render(result9))

    banner("Section 5.1.2 — Fig 10: the nature of loss")
    print(fig10_loss_nature.render(fig10_loss_nature.analyze(result9.campaign)))

    banner("Section 5.2 — last-mile campaign (Figs 11-12, Table 1)")
    data = run_lastmile_campaign(
        world, hosts_per_type_per_region=8, days=2, minutes_between_rounds=60.0
    )
    print(f"  observations: {len(data.observations)}")
    print()
    print(fig11_lastmile.render(fig11_lastmile.run(data)))
    print()
    print(table1_astype.render(table1_astype.run(data)))
    print()
    print(fig12_diurnal.render(fig12_diurnal.run(data)))

    banner("Section 5 at scale — population campaign")
    print(campaign.run(world, n_users=120, seed=7).render())

    banner("Beyond the paper — failover under injected faults")
    print(failover.run(world).render())

    print()
    print(f"Full report regenerated in {time.time() - t0:.0f}s.")


if __name__ == "__main__":
    main()
