"""Convergence and impact metrics for faults, and the drill that takes them.

Three lenses on one fault:

* **Control plane** — how many BGP messages until the network is quiet
  again, and which (entry PoP, prefix) decisions moved to a different
  egress.
* **Reachability** — the *blackhole window*: decisions that still name an
  egress while the fault is being digested, but whose traffic cannot be
  delivered (egress PoP down, internal path partitioned, or the external
  route gone).  Measured mid-failover (after the perturbation, before
  convergence) and again after convergence; a blackhole that survives
  convergence is permanent.
* **Media** — what an in-flight RTP stream experiences: the failover
  window maps to fully lost slots overlaid on the post-fault path's own
  loss process.

:func:`run_drill` is the one place that knows the fail → window → repair
sequence: it replays a :class:`Drill` — a fault timeline plus the path a
stream rides — through a :class:`~repro.faults.injector.FaultInjector`
and takes all three measurements.  Everything else here only reads the
network; the perturbation itself is the injector's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TypeVar

import numpy as np

from repro.dataplane.transmit import (
    SLOT_S,
    StreamResult,
    _stream_shape,
    count_heavy_loss_slots,
    simulate_stream,
)
from repro.faults.events import REPAIR_TYPES, FaultEvent
from repro.faults.injector import FaultInjector
from repro.net.addressing import Prefix
from repro.vns.service import VideoNetworkService

#: Duration and packet rate (1080p) of the media stream a drill rides at
#: each stage; :func:`overlay_outage` sizes slots at the same rate.
DRILL_STREAM_S = 120.0
DRILL_STREAM_PPS = 420.0

#: User ASes sampled for the anycast entry-PoP observation.
ENTRY_SAMPLE = 24

#: Destination prefixes sampled for a drill's blackhole / egress census.
PREFIX_SAMPLE = 32

T = TypeVar("T")

#: Seconds to *detect* a fault (BFD / hold-timer expiry) before BGP reacts.
DETECTION_S = 1.0

#: Seconds of propagation + processing per BGP message delivered.  The
#: engine counts messages, not time; this constant converts the count into
#: a simulated failover duration.  Real iBGP convergence is dominated by
#: MRAI/processing batches, so the per-message cost is small.
PER_MESSAGE_S = 0.005


@dataclass(frozen=True, slots=True)
class RouteState:
    """What one entry PoP believes about one prefix at snapshot time."""

    egress_pop: str | None  #: ``None`` when the entry has no route at all
    deliverable: bool  #: route exists *and* traffic actually arrives

    @property
    def blackholed(self) -> bool:
        """Routed on paper, undeliverable in practice."""
        return self.egress_pop is not None and not self.deliverable


@dataclass(slots=True)
class RoutingSnapshot:
    """Routing state over the meter's (entry PoP × prefix) sample."""

    states: dict[tuple[str, Prefix], RouteState] = field(default_factory=dict)

    @property
    def blackholes(self) -> frozenset[tuple[str, Prefix]]:
        return frozenset(k for k, s in self.states.items() if s.blackholed)

    def shifted_from(self, other: "RoutingSnapshot") -> frozenset[tuple[str, Prefix]]:
        """Keys routed in both snapshots whose egress PoP differs."""
        return frozenset(
            key
            for key, state in self.states.items()
            if (before := other.states.get(key)) is not None
            and before.egress_pop is not None
            and state.egress_pop is not None
            and state.egress_pop != before.egress_pop
        )

    def lost_from(self, other: "RoutingSnapshot") -> frozenset[tuple[str, Prefix]]:
        """Keys routed in ``other`` but unrouted (or gone) here."""
        return frozenset(
            key
            for key, before in other.states.items()
            if before.egress_pop is not None
            and (
                key not in self.states or self.states[key].egress_pop is None
            )
        )


class ImpactMeter:
    """Samples forwarding state over a fixed (entry PoP × prefix) grid.

    The grid is fixed at construction so before/during/after snapshots
    line up key-for-key.  Entry PoPs that are down at snapshot time are
    skipped — no traffic enters there, so they cannot blackhole anything.
    """

    def __init__(
        self, service: VideoNetworkService, prefixes: tuple[Prefix, ...]
    ) -> None:
        if not prefixes:
            raise ValueError("need at least one prefix to meter")
        self.service = service
        self.prefixes = tuple(prefixes)
        self.entry_pops = tuple(pop.code for pop in service.pops())

    def snapshot(self) -> RoutingSnapshot:
        """The current forwarding state of every grid cell."""
        network = self.service.network
        snap = RoutingSnapshot()
        for entry in self.entry_pops:
            if not network.pop_is_up(entry):
                continue
            for prefix in self.prefixes:
                decision = network.egress_decision(entry, prefix)
                if decision is None:
                    snap.states[(entry, prefix)] = RouteState(None, False)
                    continue
                snap.states[(entry, prefix)] = RouteState(
                    decision.egress_pop,
                    self._deliverable(entry, decision.egress_pop, prefix),
                )
        return snap

    def _deliverable(self, entry: str, egress: str, prefix: Prefix) -> bool:
        """Would traffic actually make it out via this decision?"""
        network = self.service.network
        if not network.pop_is_up(egress):
            return False
        try:
            network.pop_l2_path(entry, egress)
        except ValueError:
            return False  # internal partition: routed but unreachable
        # The decision names an egress; the egress must still hold a live
        # external route (a failed session empties its Adj-RIB-In).
        return network.local_external_route(egress, prefix) is not None


@dataclass(slots=True)
class EventImpact:
    """Everything one fault event did to the sampled forwarding state."""

    event: FaultEvent
    messages: int  #: BGP messages delivered to reconverge
    shifted: frozenset[tuple[str, Prefix]]  #: egress PoP changed
    blackholes_during: frozenset[tuple[str, Prefix]]  #: mid-failover
    blackholes_after: frozenset[tuple[str, Prefix]]  #: survived convergence
    routes_lost: frozenset[tuple[str, Prefix]]  #: routed → unrouted

    @property
    def failover_window_s(self) -> float:
        """Simulated duration of the failover (see :func:`failover_window_s`)."""
        return failover_window_s(self.messages)


def measure_event(
    injector: FaultInjector, meter: ImpactMeter, event: FaultEvent
) -> EventImpact:
    """Apply one event in stages and measure each stage.

    Perturb (state applied, updates queued) → snapshot the mid-failover
    window → converge → snapshot the settled state.  The *during*
    snapshot is the interesting one: routers still forward on stale
    decisions whose machinery is already gone.
    """
    before = meter.snapshot()
    injector.perturb(event)
    during = meter.snapshot()
    messages = injector.converge()
    after = meter.snapshot()
    return EventImpact(
        event=event,
        messages=messages,
        shifted=after.shifted_from(before),
        blackholes_during=during.blackholes,
        blackholes_after=after.blackholes,
        routes_lost=after.lost_from(before),
    )


# --------------------------------------------------------------------- #
# media impact
# --------------------------------------------------------------------- #


def failover_window_s(messages: int) -> float:
    """Simulated seconds a fault disrupts forwarding.

    Detection delay plus a per-message convergence cost — the engine is
    untimed, so the message count is the clock.
    """
    if messages < 0:
        raise ValueError(f"messages must be non-negative, got {messages!r}")
    return DETECTION_S + PER_MESSAGE_S * messages


def overlay_outage(result: StreamResult, window_s: float) -> StreamResult:
    """``result`` with the first ``window_s`` seconds fully blacked out.

    Models a stream in flight when the fault hits: until reconvergence
    every packet is lost, after which the stream rides the (already
    rerouted) path whose loss process ``result`` sampled.  A blanked slot
    loses what *it* carried — a partial final slot carries fewer packets
    than the others.  The stream was simulated in
    :data:`~repro.dataplane.transmit.SLOT_S` slots at
    :data:`DRILL_STREAM_PPS`.  Loss-free by construction if ``window_s``
    is 0.

    Raises
    ------
    ValueError
        For a negative window, or a ``result`` that is not shaped like a
        stream at that rate.
    """
    if window_s < 0:
        raise ValueError(f"window_s must be non-negative, got {window_s!r}")
    if result.n_slots == 0 or window_s == 0:
        return result
    n_slots, packets_per_slot, final_packets = _stream_shape(
        result.packets_sent / DRILL_STREAM_PPS, DRILL_STREAM_PPS, SLOT_S
    )
    if n_slots != result.n_slots:
        raise ValueError(
            f"{result.packets_sent} packets in {result.n_slots} slots is not a "
            f"{DRILL_STREAM_PPS:g} pps stream with {SLOT_S:g} s slots"
        )
    slot_packets = np.full(n_slots, packets_per_slot)
    slot_packets[-1] = final_packets
    blanked = min(n_slots, math.ceil(window_s / SLOT_S))
    slot_losses = result.slot_losses.copy()
    slot_losses[:blanked] = slot_packets[:blanked]
    return StreamResult(
        packets_sent=result.packets_sent,
        slot_losses=slot_losses,
        jitter_p95_ms=result.jitter_p95_ms,
        rtt_ms=result.rtt_ms,
        packets_lost=int(slot_losses.sum()),
        heavy_loss_slots=int(count_heavy_loss_slots(slot_losses, slot_packets)),
    )


@dataclass(slots=True)
class MediaImpact:
    """Loss experienced by one media stream across a fault's lifetime."""

    steady: StreamResult  #: pre-fault path, no fault
    failover: StreamResult  #: post-fault path with the outage overlaid
    recovered: StreamResult  #: after repair, back on the original path
    window_s: float

    @property
    def steady_loss_percent(self) -> float:
        return self.steady.loss_percent

    @property
    def failover_loss_percent(self) -> float:
        return self.failover.loss_percent

    @property
    def recovered_loss_percent(self) -> float:
        return self.recovered.loss_percent

    def summary(self) -> str:
        return (
            f"loss steady {self.steady_loss_percent:.2f}% ->"
            f" failover {self.failover_loss_percent:.2f}%"
            f" (window {self.window_s:.2f}s) ->"
            f" recovered {self.recovered_loss_percent:.2f}%"
        )


def prefix_sample(items: Iterable[T], *, limit: int) -> tuple[T, ...]:
    """A deterministic, evenly strided sample of at most ``limit`` items.

    Sorting first makes the sample a function of the *set*, not of
    iteration order — two worlds built from the same seed meter the same
    cells.  Prefixes for the :class:`ImpactMeter` grid; a drill samples
    user ASes the same way.

    Raises
    ------
    ValueError
        For a non-positive limit.
    """
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit!r}")
    ordered = sorted(items)
    if len(ordered) <= limit:
        return tuple(ordered)
    indices = np.linspace(0, len(ordered) - 1, num=limit).astype(int)
    return tuple(ordered[i] for i in dict.fromkeys(indices))


# --------------------------------------------------------------------- #
# drills
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Drill:
    """A fault timeline plus the path a media stream rides through it.

    ``events`` is faults then repairs in time order — the same tuple of
    :class:`~repro.faults.events.FaultEvent` a ``ScenarioSpec.faults``
    holds.  ``media`` names the stream's path, re-resolved at every stage
    because routes move under faults: ``(src_pop, dst_pop)`` rides the
    internal L2 route between two PoPs, ``(entry_pop, prefix)`` the VNS
    path from an entry PoP out to a prefix; ``None`` measures the control
    plane only.
    """

    name: str
    events: tuple[FaultEvent, ...]
    media: tuple[str, str] | tuple[str, Prefix] | None = None


@dataclass(frozen=True, slots=True)
class StageView:
    """What can only be read while a stage is live."""

    #: PoP route of an internal media corridor (``None``: partitioned, or
    #: the drill rides no PoP-to-PoP corridor).
    route: tuple[str, ...] | None
    #: Anycast entry PoP per sampled user AS (``None``: no PoP reachable).
    entries: dict[int, str | None]


@dataclass(slots=True)
class DrillResult:
    """Everything one drill measured."""

    name: str
    impacts: list[EventImpact]
    media: MediaImpact | None
    event_log: tuple[str, ...]
    before: StageView  #: healthy, before the first event
    during: StageView  #: every fault in effect, before the first repair
    after: StageView  #: after the last event
    #: The drill left the world as found: the metered routing state after
    #: the last event equals the state before the first, nothing active.
    restored: bool

    @property
    def total_messages(self) -> int:
        """BGP messages across every event (fail and repair)."""
        return sum(impact.messages for impact in self.impacts)

    @property
    def permanent_blackholes(self) -> frozenset[tuple[str, Prefix]]:
        """Blackholes still present after the *last* convergence."""
        return self.impacts[-1].blackholes_after if self.impacts else frozenset()

    @property
    def blackholes_during_max(self) -> int:
        """Largest mid-failover blackhole set over the drill's events."""
        return max((len(i.blackholes_during) for i in self.impacts), default=0)


def run_drill(
    service: VideoNetworkService,
    rng: np.random.Generator,
    drill: Drill,
) -> DrillResult:
    """Replay ``drill`` on ``service`` and measure what it cost.

    Steady stream → each fault through :func:`measure_event` → just
    before the first repair, the failover stream with the outage window
    of the messages delivered so far overlaid → the remaining events →
    recovered stream.  Faults that leave the control plane alone (transit
    degradation) open no window: the stream only rides the impaired path;
    any other fault costs at least its detection, even if no egress moves.
    A fault that leaves the media path no route takes the stream
    down for its whole duration.  The three streams draw from ``rng`` in
    that order; a drill whose repairs undo its faults leaves the service
    exactly as found (:attr:`DrillResult.restored`), so drills run back
    to back on one world.

    Raises
    ------
    ValueError
        If the drill has no repair event, its media path has no route on
        the healthy network, or the injector rejects an event — whatever
        was applied until then is undone first.
    """
    split = next(
        (i for i, e in enumerate(drill.events) if isinstance(e, REPAIR_TYPES)),
        None,
    )
    if split is None:
        raise ValueError(f"drill {drill.name!r} never repairs what it breaks")
    injector = FaultInjector(service)
    meter = ImpactMeter(
        service, prefix_sample(service.topology.prefix_location, limit=PREFIX_SAMPLE)
    )
    users = {
        asn: service.topology.autonomous_system(asn).home.location
        for asn in prefix_sample(service.topology.ases, limit=ENTRY_SAMPLE)
    }

    def stage() -> tuple[StageView, StreamResult | None]:
        """Observe the live stage and ride the media path, if it has a route."""
        entries = {}
        for asn, location in users.items():
            pop = service.anycast.entry_pop(asn, location)
            entries[asn] = None if pop is None else pop.code
        route = path = None
        if drill.media is not None:
            start, end = drill.media
            try:
                if isinstance(end, str):
                    route = tuple(service.network.pop_l2_path(start, end))
                    path = service.vns_internal_path(start, end)
                else:
                    path = service.path_via_vns(start, end)
            except ValueError:
                pass  # the corridor is partitioned
        if path is None:
            return StageView(route, entries), None
        return StageView(route, entries), simulate_stream(
            injector.impaired_path(path),
            duration_s=DRILL_STREAM_S,
            packets_per_second=DRILL_STREAM_PPS,
            rng=rng,
        )

    baseline = meter.snapshot()
    before, steady = stage()
    if drill.media is not None and steady is None:
        raise ValueError(f"drill {drill.name!r}: no route for media {drill.media}")
    try:
        impacts = [measure_event(injector, meter, e) for e in drill.events[:split]]
        window = 0.0
        if injector.active:  # the control plane had something to detect
            window = failover_window_s(sum(impact.messages for impact in impacts))
        during, failover = stage()
        impacts += [measure_event(injector, meter, e) for e in drill.events[split:]]
    except (TypeError, ValueError):
        injector.restore()  # a rejected event must not leave the world faulted
        raise
    after, recovered = stage()
    media = None
    if drill.media is not None:
        if failover is None:  # no route: down for the stream's whole duration
            window, failover = DRILL_STREAM_S, steady
        media = MediaImpact(
            steady=steady,
            failover=overlay_outage(failover, window),
            recovered=recovered,
            window_s=window,
        )
    return DrillResult(
        name=drill.name,
        impacts=impacts,
        media=media,
        event_log=tuple(injector.event_log),
        before=before,
        during=during,
        after=after,
        restored=meter.snapshot().states == baseline.states
        and not injector.active
        and not injector.degradations,
    )
