"""Steering-policy comparison: always-VNS vs threshold offload vs budget.

The paper carries every call cold-potato across the backbone (its
``always_vns`` stance); production systems offload calls to the direct
Internet path when measured QoE is comparable, and overlay work adds a
one-hop PoP detour as the middle ground.  This experiment runs **the
same seeded campaign** once per policy — identical users, arrivals and
stream draws (the steered stream reuses the baseline batches, see
:mod:`repro.workload.engine`) — so the offload-rate, backbone-byte and
QoE-delta columns differ only by policy.

Each policy's run is the bare campaign scenario with that policy's
prepared engine swapped in (:mod:`repro.scenarios.loader` says what a
policy name, the telemetry size and the budget mean), so a policy here
*is* ``ScenarioSpec(steering_policy=name)`` — collected once instead of
once per policy.  Every policy's campaign runs in the calling process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.experiments.campaign import campaign_spec
from repro.experiments.common import World
from repro.scenarios.loader import (
    backbone_budget_bytes,
    compose_scenario,
    corridor_payload_bytes,
    scenario_steering,
    scenario_telemetry,
)
from repro.steering import PathHealthTable
from repro.workload import CampaignRun

#: The comparison's policy line-up.
POLICIES: tuple[str, ...] = (
    "always_vns",
    "threshold_offload",
    "cost_budgeted",
)


@dataclass(slots=True)
class SteeringComparison:
    """One campaign per policy, plus the shared telemetry table."""

    seed: int
    health: PathHealthTable
    budget_bytes: int
    runs: dict[str, CampaignRun] = field(default_factory=dict)

    def report(self, policy: str) -> dict:
        """One policy's campaign-wide steering block."""
        steering = self.runs[policy].report.steering
        assert steering is not None  # every run here carries an engine
        return steering

    def to_json(self) -> str:
        """Stable serialisation: one full campaign report per policy."""
        payload = {
            "seed": self.seed,
            "budget_bytes": self.budget_bytes,
            "policies": {
                name: run.report.to_dict() for name, run in self.runs.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_row(self) -> dict:
        """Flat scalar summary: each policy's steering outcomes."""
        row: dict = {"policies": len(self.runs), "budget_bytes": self.budget_bytes}
        for name in self.runs:
            steering = self.report(name)
            delta = steering["qoe_delta_vs_vns"]
            row[f"{name}.offload_rate"] = steering["offload_rate"]
            row[f"{name}.detour_calls"] = steering["detour_calls"]
            row[f"{name}.backbone_saved_fraction"] = steering[
                "backbone_saved_fraction"
            ]
            row[f"{name}.qoe_delta_delay_ms"] = delta["delay_ms_mean"]
            row[f"{name}.qoe_delta_loss_pct"] = delta["loss_pct_mean"]
        return row

    def render(self) -> str:
        lines = ["Steering policies — same campaign, three stances"]
        lines.append(
            "  policy              offload   detour   backbone saved"
            "      dQoE delay    dQoE loss"
        )
        for name in self.runs:
            steering = self.report(name)
            delta = steering["qoe_delta_vs_vns"]
            lines.append(
                f"  {name:<18}"
                f" {steering['offload_rate']:8.1%}"
                f" {steering['detour_calls']:8d}"
                f" {steering['backbone_saved_fraction']:15.1%}"
                f" {delta['delay_ms_mean']:+10.2f} ms"
                f" {delta['loss_pct_mean']:+10.4f}%"
            )
        return "\n".join(lines)


def run(
    world: World,
    *,
    n_users: int = 200,
    calls_per_user_day: float = 4.0,
    days: int = 1,
    seed: int = 0,
) -> SteeringComparison:
    """Compare the :data:`POLICIES` over one seeded campaign.

    One integer reproduces everything: the campaign as in
    :func:`repro.experiments.campaign.run`, the probe telemetry on
    ``seed + 3``.  To compare a differently tuned policy, build it with
    :func:`repro.steering.make_policy` and swap it into the composed
    scenario the same way (``dataclasses.replace(loaded, steering=...)``).
    """
    spec = campaign_spec(
        world,
        "steering",
        seed=seed,
        n_users=n_users,
        calls_per_user_day=calls_per_user_day,
        days=days,
    )
    loaded = compose_scenario(spec, world)
    health = scenario_telemetry(world, seed)
    comparison = SteeringComparison(
        seed=seed,
        health=health,
        budget_bytes=backbone_budget_bytes(
            corridor_payload_bytes(loaded.calls, loaded.config)
        ),
    )
    for name in POLICIES:
        engine = scenario_steering(name, health, loaded.calls, loaded.config)
        comparison.runs[name] = replace(loaded, steering=engine).run()
    return comparison
