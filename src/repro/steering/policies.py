"""Pluggable path-steering policies.

Three production stances from the literature, each deterministic under a
seed and free of cross-call state, so a sharded campaign reproduces the
sequential decisions exactly:

* :class:`AlwaysVnsPolicy` — the paper's cold-potato baseline: every
  call rides the backbone.
* :class:`ThresholdOffloadPolicy` — "Saving Private WAN": offload a call
  to the direct Internet path when its probed RTT/loss are within
  configured deltas of the VNS path, falling back to a one-hop PoP
  detour ("Examining Lower Latency Routing with Overlay Networks") when
  the direct path fails the RTT gate but the detour passes it.
* :class:`CostBudgetedPolicy` — keep backbone usage under an explicit
  byte budget: a greedy plan (:meth:`CostBudgetedPolicy.prepare`)
  offloads the corridors with the smallest measured QoE penalty first
  until the projected backbone bytes fit, splitting the marginal
  corridor by a per-call blake2b draw.

A decision is a pure function of the call's identity, the corridor's
:class:`~repro.steering.health.PathHealthTable` state and the candidate
paths' RTTs — never of the order calls were processed in.  Randomised
splits hash ``(seed, src, dst, call_id)`` through blake2b (the same
process-stable keying as :func:`repro.workload.engine.group_digest`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import ClassVar, Protocol, runtime_checkable

from repro.dataplane.transmit import _stream_shape
from repro.steering.health import HealthEntry

#: Media payload per RTP packet, for backbone-byte accounting (a typical
#: conferencing MTU budget: payload + RTP/UDP/IP headers).
MEDIA_PACKET_BYTES = 1200


class PathChoice(enum.Enum):
    """Where a steered call travels."""

    VNS = "vns"  #: cold-potato through the backbone (the paper's default)
    INTERNET = "internet"  #: the native AS path between the two users
    POP_DETOUR = "pop_detour"  #: via one PoP's peering fabric, no backbone

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class SteeringDecision:
    """One call's routing verdict and why it was reached."""

    choice: PathChoice
    reason: str
    detour_pop: str | None = None

    @property
    def offloaded(self) -> bool:
        """True when the call leaves the VNS backbone."""
        return self.choice is not PathChoice.VNS


#: The baseline policy's one verdict, shared by every call it decides.
ALWAYS_VNS = SteeringDecision(choice=PathChoice.VNS, reason="always_vns")


@dataclass(frozen=True, slots=True)
class PathCandidates:
    """The resolved transport options for one call (RTTs are exact:
    path delay is deterministic in this model, loss is not)."""

    vns_rtt_ms: float
    internet_rtt_ms: float
    detour_rtt_ms: float | None = None
    detour_pop: str | None = None


@dataclass(frozen=True, slots=True)
class SteeringContext:
    """Everything a policy may consult for one decision."""

    src_region: str
    dst_region: str
    t_hours: float
    seed: int
    call_id: int = 0
    payload_bytes: int = 0
    candidates: PathCandidates | None = None
    vns_health: HealthEntry | None = None
    internet_health: HealthEntry | None = None


@runtime_checkable
class SteeringPolicy(Protocol):
    """A steering policy: a named, pure decision function."""

    name: str

    def decide(self, ctx: SteeringContext) -> SteeringDecision:
        """The verdict for one call (pure: no cross-call state)."""
        ...


def stream_payload_bytes(
    duration_s: float, packets_per_second: float, slot_s: float
) -> int:
    """Payload bytes of one media stream: the packets the simulator
    sends for it (:func:`~repro.dataplane.transmit._stream_shape`)."""
    n_slots, packets_per_slot, final_packets = _stream_shape(
        duration_s, packets_per_second, slot_s
    )
    return (packets_per_slot * (n_slots - 1) + final_packets) * MEDIA_PACKET_BYTES


def call_unit_draw(seed: int, src_region: str, dst_region: str, call_id: int) -> float:
    """A uniform [0, 1) draw keyed by (seed, corridor, call) via blake2b.

    Process-stable and order-free: any shard evaluating the same call
    reaches the same split, which is what keeps fractional-offload
    campaigns byte-identical sequential vs sharded.
    """
    text = f"{seed}|steer|{src_region}|{dst_region}|{call_id}"
    digest = blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


def _better_offload(candidates: PathCandidates | None) -> tuple[PathChoice, str | None]:
    """The cheaper of the two off-backbone transports (by exact RTT)."""
    if (
        candidates is not None
        and candidates.detour_rtt_ms is not None
        and candidates.detour_rtt_ms < candidates.internet_rtt_ms
    ):
        return PathChoice.POP_DETOUR, candidates.detour_pop
    return PathChoice.INTERNET, None


@dataclass(frozen=True, slots=True)
class AlwaysVnsPolicy:
    """The paper's baseline: every call cold-potato through VNS."""

    name: ClassVar[str] = "always_vns"

    def decide(self, ctx: SteeringContext) -> SteeringDecision:
        return ALWAYS_VNS


@dataclass(frozen=True, slots=True)
class ThresholdOffloadPolicy:
    """Offload where the Internet is measured to be comparable.

    A call leaves the backbone only when **all** gates pass:

    * telemetry exists, is fresh and confident for both transports on the
      corridor (else: VNS, the safe default);
    * the probed loss penalty ``internet - vns`` is within
      ``loss_delta_pct`` (0.25) percentage points;
    * the probed corridor RTT penalty is within ``rtt_delta_ms`` (15 ms);
    * the *call's own* resolved Internet path RTT is within
      ``rtt_delta_ms`` of its VNS path RTT (corridor averages hide
      per-prefix spread; this gate bounds every offloaded call's RTT
      regression, hence the mean).

    When the direct path fails its RTT gates but a one-hop PoP detour
    passes them, the call takes the detour — still zero backbone bytes.
    """

    rtt_delta_ms: ClassVar[float] = 15.0
    loss_delta_pct: ClassVar[float] = 0.25
    name: ClassVar[str] = "threshold_offload"

    def decide(self, ctx: SteeringContext) -> SteeringDecision:
        vns, inet = ctx.vns_health, ctx.internet_health
        if vns is None or inet is None:
            return SteeringDecision(choice=PathChoice.VNS, reason="no_telemetry")
        loss_delta_pct = inet.loss_percent - vns.loss_percent
        if loss_delta_pct > self.loss_delta_pct:
            return SteeringDecision(choice=PathChoice.VNS, reason="loss_gate")
        if inet.rtt_ms - vns.rtt_ms > self.rtt_delta_ms:
            return SteeringDecision(choice=PathChoice.VNS, reason="probed_rtt_gate")
        candidates = ctx.candidates
        if candidates is None:
            # Telemetry alone qualifies the corridor.
            return SteeringDecision(choice=PathChoice.INTERNET, reason="probed_ok")
        if candidates.internet_rtt_ms - candidates.vns_rtt_ms <= self.rtt_delta_ms:
            return SteeringDecision(choice=PathChoice.INTERNET, reason="comparable")
        if (
            candidates.detour_rtt_ms is not None
            and candidates.detour_rtt_ms - candidates.vns_rtt_ms <= self.rtt_delta_ms
        ):
            return SteeringDecision(
                choice=PathChoice.POP_DETOUR,
                reason="detour_comparable",
                detour_pop=candidates.detour_pop,
            )
        return SteeringDecision(choice=PathChoice.VNS, reason="path_rtt_gate")


@dataclass(slots=True)
class CostBudgetedPolicy:
    """Fit the backbone under a byte budget, offloading cheapest-first.

    :meth:`prepare` runs the greedy plan once, up front, against the
    projected per-corridor traffic matrix and the health table: corridors
    are sorted by measured offload penalty (probed RTT regression plus
    ``loss_weight_ms_per_pct`` times the probed loss regression — an
    unmeasured corridor is costliest), then offloaded in order until the
    bytes kept on the backbone fit ``budget_bytes``.  The marginal
    corridor is split fractionally; each of its calls resolves the split
    with :func:`call_unit_draw`, so the plan is exact in expectation and
    deterministic per call.

    Decisions before :meth:`prepare` raise — the policy is meaningless
    without a plan.
    """

    budget_bytes: int = 0
    loss_weight_ms_per_pct: float = 40.0
    name: ClassVar[str] = "cost_budgeted"
    #: corridor -> offload fraction in [0, 1]; ``None`` until prepared.
    plan: dict[tuple[str, str], float] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {self.budget_bytes!r}")

    def offload_penalty(
        self, vns: HealthEntry | None, inet: HealthEntry | None
    ) -> float:
        """The measured cost (ms-equivalent) of pushing a corridor off
        the backbone; infinite when telemetry cannot price it."""
        if vns is None or inet is None:
            return math.inf
        rtt_penalty = max(0.0, inet.rtt_ms - vns.rtt_ms)
        loss_penalty = max(0.0, inet.loss_percent - vns.loss_percent)
        return rtt_penalty + self.loss_weight_ms_per_pct * loss_penalty

    def prepare(
        self,
        corridor_bytes: dict[tuple[str, str], int],
        health,
    ) -> dict[tuple[str, str], float]:
        """Compute (and install) the greedy offload plan.

        ``corridor_bytes`` is the projected backbone payload per directed
        region pair; ``health`` a
        :class:`~repro.steering.health.PathHealthTable` read at hour 0
        (a corridor's midnight bucket where it is confident, else its
        all-day aggregate).
        """
        from repro.steering.health import Transport

        total = sum(corridor_bytes.values())
        excess = total - self.budget_bytes
        plan: dict[tuple[str, str], float] = {}
        if excess > 0:
            priced = sorted(
                corridor_bytes.items(),
                key=lambda item: (
                    self.offload_penalty(
                        health.lookup(item[0][0], item[0][1], Transport.VNS, t_hours=0.0),
                        health.lookup(item[0][0], item[0][1], Transport.INTERNET, t_hours=0.0),
                    ),
                    item[0],
                ),
            )
            remaining = float(excess)
            for corridor, volume in priced:
                if remaining <= 0 or volume <= 0:
                    break
                fraction = min(1.0, remaining / volume)
                plan[corridor] = fraction
                remaining -= volume * fraction
        self.plan = plan
        return plan

    def decide(self, ctx: SteeringContext) -> SteeringDecision:
        if self.plan is None:
            raise RuntimeError(
                "CostBudgetedPolicy.prepare(...) must run before decide()"
            )
        fraction = self.plan.get((ctx.src_region, ctx.dst_region), 0.0)
        if fraction <= 0.0:
            return SteeringDecision(choice=PathChoice.VNS, reason="within_budget")
        if fraction < 1.0:
            draw = call_unit_draw(ctx.seed, ctx.src_region, ctx.dst_region, ctx.call_id)
            if draw >= fraction:
                return SteeringDecision(choice=PathChoice.VNS, reason="budget_split")
        choice, detour_pop = _better_offload(ctx.candidates)
        return SteeringDecision(
            choice=choice, reason="budget_offload", detour_pop=detour_pop
        )


def make_policy(name: str, **options: float) -> SteeringPolicy:
    """Build a policy by its registry name (the experiment's entry point)."""
    builders = {
        "always_vns": AlwaysVnsPolicy,
        "threshold_offload": ThresholdOffloadPolicy,
        "cost_budgeted": CostBudgetedPolicy,
    }
    builder = builders.get(name)
    if builder is None:
        raise KeyError(f"unknown steering policy {name!r} (known: {sorted(builders)})")
    return builder(**options)  # type: ignore[return-value]
