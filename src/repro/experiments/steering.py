"""Steering-policy comparison: always-VNS vs threshold offload vs budget.

The paper carries every call cold-potato across the backbone (its
``always_vns`` stance); production systems offload calls to the direct
Internet path when measured QoE is comparable, and overlay work adds a
one-hop PoP detour as the middle ground.  This experiment runs **the
same seeded campaign** once per policy — identical users, arrivals and
stream draws (the steered stream reuses the baseline batches, see
:mod:`repro.workload.engine`) — so the offload-rate, backbone-byte and
QoE-delta columns differ only by policy.

With ``workers > 1`` every policy's campaign runs on the world's one
persistent worker pool; reports stay byte-identical to ``workers=1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.experiments.campaign import seeded_calls
from repro.experiments.common import World
from repro.steering import (
    PathHealthTable,
    SteeringEngine,
    SteeringTelemetry,
    make_policy,
    stream_payload_bytes,
)
from repro.workload import (
    REGION_CODE,
    CallSpec,
    CampaignConfig,
    CampaignRun,
    ShardedCampaignRunner,
    ShardPlan,
)

#: The comparison's default policy line-up.
DEFAULT_POLICIES: tuple[str, ...] = (
    "always_vns",
    "threshold_offload",
    "cost_budgeted",
)


def corridor_payload_bytes(
    calls: list[CallSpec], config: CampaignConfig
) -> dict[tuple[str, str], int]:
    """Projected media bytes per directed region corridor.

    The traffic matrix :meth:`CostBudgetedPolicy.prepare` plans against —
    computed from the call list alone (no simulation), using the same
    packet accounting as the stream simulator.
    """
    matrix: dict[tuple[str, str], int] = {}
    for spec in calls:
        corridor = (REGION_CODE[spec.caller.region], REGION_CODE[spec.callee.region])
        matrix[corridor] = matrix.get(corridor, 0) + stream_payload_bytes(
            spec.duration_s, config.packets_per_second, config.slot_s
        )
    return matrix


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

    def to_json(self, indent: int | None = 2) -> str:
        """Stable serialisation: one full campaign report per policy."""
        payload = {
            "seed": self.seed,
            "budget_bytes": self.budget_bytes,
            "policies": {
                name: run.report.to_dict() for name, run in self.runs.items()
            },
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_row(self) -> dict:
        """Flat scalar summary: each policy's steering outcomes."""
        row: dict = {"policies": len(self.runs), "budget_bytes": self.budget_bytes}
        for name, run in self.runs.items():
            steering = run.report.steering
            assert steering is not None
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
        for name, run in self.runs.items():
            steering = run.report.steering
            assert steering is not None
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
    multiparty_fraction: float = 0.15,
    seed: int = 0,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    rtt_delta_ms: float = 15.0,
    loss_delta_pct: float = 0.25,
    budget_fraction: float = 0.5,
    telemetry_days: int = 1,
    telemetry_minutes: float = 240.0,
    telemetry_hosts: int = 2,
    workers: int = 1,
    shard_plan: ShardPlan | None = None,
) -> SteeringComparison:
    """Compare steering policies over one seeded campaign.

    Seeds derive as in :func:`repro.experiments.campaign.seeded_calls`
    (population ``seed``, arrivals ``seed + 1``, engine ``seed + 2``) with
    the probe telemetry on ``seed + 3``, so one integer reproduces everything.
    ``budget_fraction`` sets the ``cost_budgeted`` backbone budget as a
    fraction of the campaign's projected backbone bytes.

    Raises
    ------
    ValueError
        For an out-of-range ``budget_fraction``.
    """
    if not 0.0 <= budget_fraction <= 1.0:
        raise ValueError(
            f"budget_fraction must be in [0, 1], got {budget_fraction!r}"
        )
    calls, config = seeded_calls(
        world, n_users, calls_per_user_day, days, multiparty_fraction, seed
    )

    health = SteeringTelemetry(world.service, seed=seed + 3).collect(
        days=telemetry_days,
        minutes_between_rounds=telemetry_minutes,
        hosts_per_type_per_region=telemetry_hosts,
    )

    matrix = corridor_payload_bytes(calls, config)
    budget_bytes = int(sum(matrix.values()) * budget_fraction)

    comparison = SteeringComparison(
        seed=seed, health=health, budget_bytes=budget_bytes
    )
    if shard_plan is None:
        shard_plan = ShardPlan(n_workers=workers)
    pool = None
    if shard_plan.effective_workers > 1:
        pool = world.campaign_pool(workers=shard_plan.effective_workers)
    for name in policies:
        if name == "threshold_offload":
            policy = make_policy(
                name, rtt_delta_ms=rtt_delta_ms, loss_delta_pct=loss_delta_pct
            )
        elif name == "cost_budgeted":
            policy = make_policy(name, budget_bytes=budget_bytes)
            policy.prepare(matrix, health)
        else:
            policy = make_policy(name)
        engine = SteeringEngine(health=health, policy=policy, seed=config.seed)
        comparison.runs[name] = ShardedCampaignRunner(
            world.service, config, shard_plan, steering=engine, pool=pool
        ).run(calls)
    return comparison


def render(comparison: SteeringComparison) -> str:
    """The policy comparison as rows (one per policy)."""
    return comparison.render()
