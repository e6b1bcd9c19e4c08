#!/usr/bin/env python3
"""A day of conferencing traffic: the campaign subsystem end to end.

Samples a geo-weighted user population from the synthetic Internet,
draws a day of diurnally modulated call arrivals (with a TURN-relayed
multiparty share), runs them through the batched campaign engine, and
prints the per-corridor QoE table plus the engine's cache/batching
numbers.  Everything is seeded: re-running prints the same report.

Run:
    python examples/campaign_demo.py
"""

from __future__ import annotations

from repro.experiments import build_world
from repro.experiments import campaign
from repro.workload import REGION_CODE


def main() -> None:
    world = build_world("small", seed=42)
    print("World built; sampling a population and a day of calls...\n")

    run = campaign.run(
        world,
        n_users=150,
        calls_per_user_day=4.0,
        days=1,
        multiparty_fraction=0.15,
        seed=7,
    )
    print(run.render())

    # Where did multiparty traffic land?  The TURN relays sit at every
    # PoP behind one anycast address; allocations follow the callers.
    report = run.report
    print(f"\nTURN allocations: {report.turn_allocations}")

    # One corridor close up: EU-to-EU calls should make the VNS case
    # plainly (short last miles, everything else on dedicated circuits).
    eu = report.pair("EU", "EU")
    if eu is not None:
        vns, inet = eu["vns"], eu["internet"]
        print(
            f"\nEU->EU ({eu['calls']} calls):\n"
            f"  via VNS:      p95 loss {vns['loss_pct']['p95']:.2f}%,"
            f" lossy slots {vns['lossy_slot_fraction']:.1%}\n"
            f"  via Internet: p95 loss {inet['loss_pct']['p95']:.2f}%,"
            f" lossy slots {inet['lossy_slot_fraction']:.1%}"
        )

    codes = ", ".join(sorted(set(REGION_CODE.values())))
    print(f"\nRegion codes: {codes}")
    print("Same seed, same report: run.report.to_json() is byte-stable.")


if __name__ == "__main__":
    main()
