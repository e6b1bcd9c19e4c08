"""The per-call steering decision engine.

Sits between routing and the workload: the campaign engine resolves the
candidate transports for a call, then asks the :class:`SteeringEngine`
which one carries it.  The engine reads the corridor's
:class:`~repro.steering.health.PathHealthTable` state at the call's time
and delegates the verdict to its pluggable policy.

Decisions are pure in ``(call identity, corridor health, candidates)``
and the engine holds no evolving state: every call asks the policy, and
nothing is memoised in front of it.  That purity is what lets a sharded
campaign reproduce the sequential decision stream exactly, and it makes
the engine plain picklable data (table, policy and seed) whose bytes a
campaign does not change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.steering.health import PathHealthTable, Transport
from repro.steering.policies import (
    PathCandidates,
    SteeringContext,
    SteeringDecision,
    SteeringPolicy,
)


@dataclass(slots=True)
class SteeringEngine:
    """Binds a health table and a policy.

    Parameters
    ----------
    health:
        The probe-fed :class:`PathHealthTable` decisions read.
    policy:
        Any :class:`~repro.steering.policies.SteeringPolicy`.
    seed:
        Drives the deterministic per-call splits some policies use.
    """

    health: PathHealthTable
    policy: SteeringPolicy
    seed: int = 0

    def decide_for_regions(
        self,
        src_region: str,
        dst_region: str,
        t_hours: float,
        *,
        candidates: PathCandidates | None = None,
        call_id: int = 0,
        payload_bytes: int = 0,
    ) -> SteeringDecision:
        """The transport verdict for one call at campaign hour ``t_hours``.

        The regions are report-region codes (``"EU"``, ``"AP"``, ...) the
        campaign engine reads off the sampled users; a corridor with no
        telemetry decides as VNS.  ``candidates`` carries the call's
        resolved path RTTs (the campaign engine always has them); without
        them policies fall back to corridor telemetry alone.
        """
        perf.incr("steering.decide")
        ctx = SteeringContext(
            src_region=src_region,
            dst_region=dst_region,
            t_hours=t_hours,
            seed=self.seed,
            call_id=call_id,
            payload_bytes=payload_bytes,
            candidates=candidates,
            vns_health=self.health.lookup(
                src_region, dst_region, Transport.VNS, t_hours=t_hours
            ),
            internet_health=self.health.lookup(
                src_region, dst_region, Transport.INTERNET, t_hours=t_hours
            ),
        )
        decision = self.policy.decide(ctx)
        perf.incr(f"steering.choice.{decision.choice.value}")
        return decision
