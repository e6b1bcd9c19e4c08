"""Measurement-fed hybrid VNS/Internet path steering.

The paper routes every call cold-potato through the backbone; production
systems ("Saving Private WAN", Microsoft 2024) offload calls to direct
Internet paths whenever measured QoE is comparable, saving backbone
capacity, and overlay work motivates a one-hop PoP detour as the middle
ground.  This subsystem is that decision layer:

* :mod:`~repro.steering.health` — the telemetry store: per-corridor
  EWMA RTT/loss with diurnal buckets, a staleness limit and a confidence
  floor (constants, like the EWMA weight and the bucket width);
* :mod:`~repro.steering.telemetry` — dual-transport probe campaigns
  (:class:`~repro.measurement.probes.LossProbeCampaign` rounds on
  :mod:`~repro.measurement.scheduler` schedules) feeding the table;
* :mod:`~repro.steering.policies` — pluggable, seed-deterministic
  policies: ``always_vns`` (paper baseline), ``threshold_offload``
  (Internet when probed RTT/loss are within deltas of VNS) and
  ``cost_budgeted`` (greedy offload under a backbone-byte budget);
* :mod:`~repro.steering.engine` — the per-call
  :meth:`~repro.steering.engine.SteeringEngine.decide_for_regions`, the
  one place a verdict is made; the campaign engine consults it.
"""

from repro.steering.engine import SteeringEngine
from repro.steering.health import (
    AGGREGATE_BUCKET,
    HealthEntry,
    PathHealthTable,
    Transport,
)
from repro.steering.policies import (
    ALWAYS_VNS,
    MEDIA_PACKET_BYTES,
    AlwaysVnsPolicy,
    CostBudgetedPolicy,
    PathCandidates,
    PathChoice,
    SteeringContext,
    SteeringDecision,
    SteeringPolicy,
    ThresholdOffloadPolicy,
    call_unit_draw,
    make_policy,
    stream_payload_bytes,
)
from repro.steering.telemetry import SteeringTelemetry, TelemetryStats

__all__ = [
    "AGGREGATE_BUCKET",
    "ALWAYS_VNS",
    "MEDIA_PACKET_BYTES",
    "AlwaysVnsPolicy",
    "CostBudgetedPolicy",
    "HealthEntry",
    "PathCandidates",
    "PathChoice",
    "PathHealthTable",
    "SteeringContext",
    "SteeringDecision",
    "SteeringEngine",
    "SteeringPolicy",
    "SteeringTelemetry",
    "TelemetryStats",
    "ThresholdOffloadPolicy",
    "Transport",
    "call_unit_draw",
    "make_policy",
    "stream_payload_bytes",
]
