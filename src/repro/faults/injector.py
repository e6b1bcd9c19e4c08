"""Applying fault events to a live, converged VNS.

Each event perturbs the real objects — the IGP graph loses the link and
SPF re-runs, border routers tear eBGP sessions down and issue the
resulting withdraws through the engine, originations are pulled — and
then BGP runs to convergence, message by message.  The injector separates
*perturbation* (state applied, updates enqueued) from *convergence* so a
meter can observe the mid-failover window where routers still forward on
stale decisions: that window is where blackholes and media loss live.

Every fault is reversible; applying a down/up pair returns the network to
its exact pre-fault routing state, which is what makes repeated scenario
runs on one world deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.attributes import Route
from repro.dataplane.link import PathSegment, SegmentKind, degrade_segment
from repro.dataplane.path import DataPath
from repro.faults.events import (
    CONTROL_FAULTS,
    CONTROL_REPAIRS,
    EVENT_TYPES,
    FaultEvent,
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
    SimulatedClock,
    TransitDegrade,
    TransitRestore,
)
from repro.net.addressing import Prefix
from repro.vns.network import CONVERGE_BUDGET, external_peer_id
from repro.vns.service import VideoNetworkService


@dataclass(slots=True)
class _PopSnapshot:
    """What a failed PoP needs to come back: sessions and originations."""

    sessions: dict[tuple[str, str], dict[Prefix, Route]] = field(default_factory=dict)
    originated: dict[str, dict[Prefix, Route]] = field(default_factory=dict)


def impaired_segment(
    segment: PathSegment, degradations: Iterable[TransitDegrade]
) -> PathSegment:
    """``segment`` under every degradation whose corridor it crosses.

    The one corridor-impairment rule, for the injector's live state and
    for :class:`~repro.scenarios.loader.ScenarioPathModel` alike: a
    TRANSIT segment whose endpoint regions equal a degradation's
    ``regions`` *as a set* takes its extra loss/delay, stacked on
    whatever impairment the segment already carries.  Everything else —
    VNS's own circuits included — is returned as is (same object).
    """
    if segment.kind is not SegmentKind.TRANSIT:
        return segment
    corridor = {segment.start_region.value, segment.end_region.value}
    extra_loss = 0.0
    extra_delay = 0.0
    for degradation in degradations:
        if corridor == set(degradation.regions):
            extra_loss += degradation.extra_loss
            extra_delay += degradation.extra_delay_ms
    if not (extra_loss or extra_delay):
        return segment
    return degrade_segment(segment, extra_loss=extra_loss, extra_delay_ms=extra_delay)


def _target(event: FaultEvent) -> object:
    """What a control-plane event acts on.

    A fault and its repair share a target; no two event kinds share a
    target type, so equal targets mean "the repair of that fault".
    """
    if isinstance(event, (LinkDown, LinkUp)):
        return frozenset((event.a, event.b))  # circuits are unordered
    if isinstance(event, (PopDown, PopUp)):
        return event.pop
    return (event.asn, event.router_id)


def _repair(fault: FaultEvent, time_s: float) -> FaultEvent:
    """The event that exactly undoes control-plane ``fault``."""
    if isinstance(fault, LinkDown):
        return LinkUp(time_s=time_s, a=fault.a, b=fault.b)
    if isinstance(fault, PopDown):
        return PopUp(time_s=time_s, pop=fault.pop)
    return SessionUp(time_s=time_s, asn=fault.asn, router_id=fault.router_id)


class FaultInjector:
    """Applies :mod:`repro.faults.events` to a :class:`VideoNetworkService`.

    Parameters
    ----------
    service:
        The converged service to perturb.  The injector mutates it in
        place; every supported event has an inverse that restores the
        original state.
    """

    def __init__(self, service: VideoNetworkService) -> None:
        self.service = service
        self.clock = SimulatedClock()
        self.event_log: list[str] = []
        #: Control-plane faults still in effect, in application order.
        self.active: list[FaultEvent] = []
        #: Transit degradations still in effect (data plane only).
        self.degradations: list[TransitDegrade] = []
        self._session_snapshots: dict[tuple[str, str], dict[Prefix, Route]] = {}
        self._pop_snapshots: dict[str, _PopSnapshot] = {}

    # ----------------------------------------------------------------- #
    # event application
    # ----------------------------------------------------------------- #

    def perturb(self, event: FaultEvent) -> None:
        """Apply ``event``: mutate state and enqueue the triggered updates.

        Advances the simulated clock to the event time.  Does *not* run
        the BGP engine — call :meth:`converge` (or use :meth:`apply`)
        afterwards; in between, the network is mid-failover.

        An event the injector cannot apply is rejected before anything is
        recorded: no log line, no clock movement, no state change.

        Raises
        ------
        TypeError
            For an event kind the injector does not know.
        ValueError
            For impossible transitions (unknown circuit or PoP, clock
            regression).
        """
        self._validate(event)
        self.clock.advance_to(event.time_s)
        self.event_log.append(event.describe())
        if isinstance(event, LinkDown):
            self._set_link(event.a, event.b, up=False)
        elif isinstance(event, LinkUp):
            self._set_link(event.a, event.b, up=True)
        elif isinstance(event, PopDown):
            self._pop_down(event.pop)
        elif isinstance(event, PopUp):
            self._pop_up(event.pop)
        elif isinstance(event, SessionDown):
            self._sessions_down(event.asn, event.router_id)
        elif isinstance(event, SessionUp):
            self._sessions_up(event.asn, event.router_id)
        elif isinstance(event, TransitDegrade):
            self.degradations.append(event)
        else:  # TransitRestore: _validate admitted nothing else
            corridor = set(event.regions)
            self.degradations = [
                d for d in self.degradations if set(d.regions) != corridor
            ]
        if isinstance(event, CONTROL_FAULTS):
            self.active.append(event)
        elif isinstance(event, CONTROL_REPAIRS):
            # A repair ends the most recent fault on the same target.
            target = _target(event)
            for index in reversed(range(len(self.active))):
                if _target(self.active[index]) == target:
                    del self.active[index]
                    break

    def _validate(self, event: FaultEvent) -> None:
        """Raise unless ``event`` names a target this network has.

        Timelines arrive from spec JSON — from outside the program.
        """
        if type(event) not in EVENT_TYPES.values():
            raise TypeError(f"unknown fault event {event!r}")
        if isinstance(event, (LinkDown, LinkUp)):
            if not self.service.network.has_circuit(event.a, event.b):
                raise ValueError(f"no L2 circuit {event.a}-{event.b}")
        elif isinstance(event, (PopDown, PopUp)):
            known = [pop.code for pop in self.service.pops()]
            if event.pop not in known:
                raise ValueError(f"unknown PoP {event.pop!r} (known: {known})")

    def converge(self) -> int:
        """Run BGP to convergence within :data:`~repro.vns.network.CONVERGE_BUDGET`
        messages; return messages delivered.

        Raises
        ------
        repro.bgp.engine.ConvergenceError
            If the engine exceeds its budget (diagnosable from the
            exception's queue snapshot).
        """
        return self.service.network.engine.run(max_messages=CONVERGE_BUDGET)

    def apply(self, event: FaultEvent) -> int:
        """Perturb and immediately converge; return messages delivered."""
        self.perturb(event)
        return self.converge()

    def restore(self) -> int:
        """Undo everything still in effect; return messages delivered.

        Replays the exact repair of each active control-plane fault,
        newest first, on this injector (PoP restarts need its snapshots)
        and clears the transit degradations — the service is left in its
        pre-fault routing state.
        """
        delivered = 0
        while self.active:
            delivered += self.apply(_repair(self.active[-1], self.clock.now_s))
        self.degradations = []
        return delivered

    # ----------------------------------------------------------------- #
    # data-plane impairments
    # ----------------------------------------------------------------- #

    def impaired_path(self, path: DataPath) -> DataPath:
        """``path`` with all active transit degradations stacked on.

        See :func:`impaired_segment`; an unimpaired path comes back as is.
        """
        if not self.degradations:
            return path
        return DataPath(
            segments=[
                impaired_segment(segment, self.degradations)
                for segment in path.segments
            ],
            description=path.description,
        )

    # ----------------------------------------------------------------- #
    # internals
    # ----------------------------------------------------------------- #

    def _refresh_all(self) -> None:
        """Queue an IGP-change notification for every speaker.

        Deliberately *not* synchronous: each router re-validates next hops
        only when its notification is delivered, so the snapshot taken
        between :meth:`perturb` and :meth:`converge` sees the stale
        forwarding decisions a real network forwards on mid-failover.
        The network words the notifications: each names the next hops
        whose metric the SPF rebuild just moved for its receiver.
        """
        network = self.service.network
        network.engine.inject(network.igp_notifications())

    def _set_link(self, a: str, b: str, *, up: bool) -> None:
        if self.service.network.set_link_state(a, b, up):
            # IGP metrics moved: hot-potato tie-breaks may flip anywhere.
            self._refresh_all()

    def _sessions_down(self, asn: int, router_id: str | None) -> None:
        network = self.service.network
        router_ids = self.service.deployment.sessions.get(asn, [])
        if router_id is not None:
            router_ids = [r for r in router_ids if r == router_id]
        for rid in router_ids:
            peer_id = external_peer_id(asn, rid)
            key = (rid, peer_id)
            if key in self._session_snapshots:
                continue  # already down
            router = network.border_routers[rid]
            snapshot, messages = router.fail_session(peer_id)
            self._session_snapshots[key] = snapshot
            network.engine.inject(messages)

    def _sessions_up(self, asn: int, router_id: str | None) -> None:
        network = self.service.network
        router_ids = self.service.deployment.sessions.get(asn, [])
        if router_id is not None:
            router_ids = [r for r in router_ids if r == router_id]
        for rid in router_ids:
            peer_id = external_peer_id(asn, rid)
            snapshot = self._session_snapshots.pop((rid, peer_id), None)
            if snapshot is None:
                continue  # was not down
            router = network.border_routers[rid]
            network.engine.inject(router.restore_session(peer_id, snapshot))

    def _pop_down(self, pop_code: str) -> None:
        network = self.service.network
        if not network.set_pop_state(pop_code, up=False):
            return
        snapshot = _PopSnapshot()
        for router in network.routers_at_pop(pop_code):
            originated = dict(router.originated)
            snapshot.originated[router.router_id] = originated
            for prefix in sorted(originated):
                network.engine.inject(router.withdraw_origination(prefix))
            for peer_id, session in sorted(router.sessions.items()):
                if not session.is_ebgp or peer_id in router.down_sessions:
                    continue
                peer_snapshot, messages = router.fail_session(peer_id)
                snapshot.sessions[(router.router_id, peer_id)] = peer_snapshot
                network.engine.inject(messages)
        self._pop_snapshots[pop_code] = snapshot
        self._refresh_all()

    def _pop_up(self, pop_code: str) -> None:
        network = self.service.network
        if not network.set_pop_state(pop_code, up=True):
            return
        snapshot = self._pop_snapshots.pop(pop_code, _PopSnapshot())
        for (rid, peer_id), peer_snapshot in sorted(snapshot.sessions.items()):
            router = network.border_routers[rid]
            network.engine.inject(router.restore_session(peer_id, peer_snapshot))
        for rid, originated in sorted(snapshot.originated.items()):
            router = network.border_routers[rid]
            for prefix, route in sorted(originated.items()):
                network.engine.inject(
                    router.originate(prefix, communities=route.communities)
                )
        self._refresh_all()
