#!/usr/bin/env python3
"""Hybrid VNS/Internet steering: three policies over one campaign.

The paper carries every call across the dedicated backbone
(``always_vns``).  This demo probes every region corridor over *both*
transports (the Sec. 5 measurement machinery feeding a
``PathHealthTable``), then replays the same seeded day of calls under
three steering stances — always-VNS, QoE-threshold offload, and a
backbone-byte budget — and prints what each one trades: offload rate,
backbone bytes saved, and the mean QoE delta against the paper's
stance.  Everything is seeded: re-running prints the same tables.

Run:
    python examples/steering_demo.py
"""

from __future__ import annotations

from repro.experiments import build_world
from repro.experiments import steering


def main() -> None:
    world = build_world("small", seed=42)
    print("World built; probing corridors and running one campaign per policy...\n")

    comparison = steering.run(
        world,
        n_users=150,
        calls_per_user_day=4.0,
        days=1,
        seed=7,
    )
    print(comparison.render())

    # The telemetry the decisions ran on: per-corridor EWMAs on both
    # transports (all-day aggregates; the table also keeps 4 h buckets).
    print("\nCorridor health (EWMA RTT ms / loss %, internet vs vns):")
    view = comparison.health.to_dict()
    for corridor in sorted(view):
        transports = view[corridor]
        cells = []
        for name in ("internet", "vns"):
            entry = transports.get(name)
            if entry is None:
                cells.append(f"{name}: —")
            else:
                cells.append(
                    f"{name}: {entry['rtt_ms']:6.1f} ms"
                    f" / {entry['loss_pct']:.3f}%"
                )
            # Confidence comes from sample counts; stale entries expire.
        print(f"  {corridor:<8} {'   '.join(cells)}")

    threshold = comparison.report("threshold_offload")
    budgeted = comparison.report("cost_budgeted")
    print(
        f"\nThreshold policy: {threshold['offloaded_calls']} of"
        f" {threshold['steered_calls']} calls offloaded"
        f" ({threshold['detour_calls']} via a PoP detour),"
        f" saving {threshold['backbone_bytes_saved'] / 1e9:.2f} GB of"
        f" backbone traffic at"
        f" {threshold['qoe_delta_vs_vns']['delay_ms_mean']:+.2f} ms mean delay."
    )
    print(
        f"Budget policy: planned against {comparison.budget_bytes / 1e9:.2f} GB"
        f" of backbone budget, realised"
        f" {budgeted['backbone_saved_fraction']:.1%} of bytes saved."
    )
    print("\nSame seed, same table: comparison.to_json() is byte-stable.")


if __name__ == "__main__":
    main()
