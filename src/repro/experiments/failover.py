"""Failover experiment: reconvergence cost and loss during failures.

Not a paper figure — the paper measures the steady state its circuits buy
— but the natural stress companion: replay the canned drills of
:mod:`repro.faults.drills` (or any others) over one world with
:func:`repro.faults.recovery.run_drill` and aggregate

* the CDF of per-event reconvergence cost (BGP messages and the derived
  failover-window seconds),
* per-stream loss during failover vs steady state vs after recovery, and
* blackhole-window sizes (cells routed-but-undeliverable mid-failover,
  and any that survive convergence).

Every drill repairs what it breaks, so the whole suite runs on one
service deployment and leaves it converged and healthy.  (The rendered
rows and JSON keys still say "scenario": they are recorded history.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.experiments.common import World, experiment_rng
from repro.faults.drills import canned_drills
from repro.faults.recovery import Drill, DrillResult, EventImpact, run_drill
from repro.measurement.stats import Cdf

#: Salt for this experiment's dedicated generator.
RNG_SALT = 9090


@dataclass(slots=True)
class FailoverResult:
    """Aggregated outcome of the drills run on one world."""

    drills: list[DrillResult] = field(default_factory=list)

    def impacts(self) -> list[EventImpact]:
        """Every measured fault event across all drills."""
        return [impact for drill in self.drills for impact in drill.impacts]

    def message_cdf(self) -> Cdf:
        """CDF of per-event reconvergence message counts."""
        return Cdf.of(float(impact.messages) for impact in self.impacts())

    def window_cdf(self) -> Cdf:
        """CDF of per-event failover-window seconds."""
        return Cdf.of(impact.failover_window_s for impact in self.impacts())

    def max_blackholes_during(self) -> int:
        """Largest mid-failover blackhole set over all events."""
        return max((drill.blackholes_during_max for drill in self.drills), default=0)

    def permanent_blackhole_count(self) -> int:
        """Blackholes still present after each drill's final repair."""
        return sum(len(drill.permanent_blackholes) for drill in self.drills)

    def render(self) -> str:
        """The failover summary as rows (the uniform-API entry point)."""
        lines = ["Failover — reconvergence cost and loss under faults"]
        lines.append(
            "  scenario                                  msgs   bh-during  bh-perm"
            "  loss steady->failover->recovered"
        )
        for drill in self.drills:
            media = drill.media
            loss = (
                f"{media.steady_loss_percent:5.2f}% ->{media.failover_loss_percent:6.2f}%"
                f" ->{media.recovered_loss_percent:5.2f}%"
                if media is not None
                else "        (control plane only)"
            )
            lines.append(
                f"  {drill.name:<41} {drill.total_messages:5d}"
                f"   {drill.blackholes_during_max:7d}"
                f"  {len(drill.permanent_blackholes):7d}  {loss}"
            )
        if not self.impacts():
            lines.append("  (no fault events measured)")
            return "\n".join(lines)
        message_cdf = self.message_cdf()
        window_cdf = self.window_cdf()
        lines.append(
            "  reconvergence msgs/event: "
            f"p50={message_cdf.quantile(0.5):.0f}"
            f" p90={message_cdf.quantile(0.9):.0f}"
            f" max={message_cdf.quantile(1.0):.0f}"
        )
        lines.append(
            "  failover window (s):      "
            f"p50={window_cdf.quantile(0.5):.2f}"
            f" p90={window_cdf.quantile(0.9):.2f}"
            f" max={window_cdf.quantile(1.0):.2f}"
        )
        return "\n".join(lines)

    def to_row(self) -> dict:
        """Flat scalar summary (seed-deterministic; no wall clock)."""
        row = {
            "scenarios": len(self.drills),
            "fault_events": len(self.impacts()),
            "messages_total": sum(drill.total_messages for drill in self.drills),
            "blackholes_during_max": self.max_blackholes_during(),
            "blackholes_permanent": self.permanent_blackhole_count(),
        }
        if self.impacts():
            message_cdf = self.message_cdf()
            window_cdf = self.window_cdf()
            row["messages_per_event_p50"] = message_cdf.quantile(0.5)
            row["messages_per_event_max"] = message_cdf.quantile(1.0)
            row["failover_window_s_p50"] = window_cdf.quantile(0.5)
            row["failover_window_s_max"] = window_cdf.quantile(1.0)
        return row

    def to_json(self) -> str:
        """Canonical JSON: per-drill blocks plus the flat row."""
        scenarios = {}
        for drill in self.drills:
            media = drill.media
            scenarios[drill.name] = {
                "messages": drill.total_messages,
                "events": len(drill.impacts),
                "blackholes_during_max": drill.blackholes_during_max,
                "blackholes_permanent": len(drill.permanent_blackholes),
                "media": None
                if media is None
                else {
                    "steady_loss_percent": media.steady_loss_percent,
                    "failover_loss_percent": media.failover_loss_percent,
                    "recovered_loss_percent": media.recovered_loss_percent,
                },
            }
        payload = {"scenarios": scenarios, "row": self.to_row()}
        return json.dumps(payload, indent=2, sort_keys=True)


def run(world: World, drills: tuple[Drill, ...] | None = None) -> FailoverResult:
    """Run ``drills`` (default: the canned suite) over ``world``, back to back.

    The canned suite cuts every long-haul circuit — which is what
    populates the reconvergence CDF — and adds the four composite drills.
    All drills share one experiment generator, in order.
    """
    rng = experiment_rng(world, RNG_SALT)
    service = world.service
    return FailoverResult(
        [run_drill(service, rng, drill) for drill in drills or canned_drills(service)]
    )
