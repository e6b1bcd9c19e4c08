"""Tests for the fault injector: reversibility, idempotence, dispatch."""

import pytest

from repro.dataplane.link import SegmentKind
from repro.faults.events import (
    FaultEvent,
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
    TransitDegrade,
    TransitRestore,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import ImpactMeter, prefix_sample


def make_meter(service, limit=16) -> ImpactMeter:
    return ImpactMeter(
        service, prefix_sample(tuple(service.topology.prefix_location), limit=limit)
    )


class TestDispatch:
    def test_unknown_event_kind_rejected(self, fault_world):
        injector = FaultInjector(fault_world.service)
        with pytest.raises(TypeError):
            injector.perturb(FaultEvent(time_s=1.0))

    def test_unknown_link_rejected(self, fault_world):
        injector = FaultInjector(fault_world.service)
        with pytest.raises(ValueError):
            injector.perturb(LinkDown(time_s=1.0, a="AMS", b="NOPE"))

    @pytest.mark.parametrize(
        "event, message",
        [
            (LinkDown(time_s=5.0, a="AMS", b="XXX"), "no L2 circuit AMS-XXX"),
            (LinkUp(time_s=5.0, a="AMS", b="XXX"), "no L2 circuit AMS-XXX"),
            (PopDown(time_s=6.0, pop="NOPE"), r"unknown PoP 'NOPE' \(known: .*'SIN'"),
            (PopUp(time_s=6.0, pop="NOPE"), r"unknown PoP 'NOPE' \(known: .*'SIN'"),
        ],
        ids=["link-down", "link-up", "pop-down", "pop-up"],
    )
    def test_rejected_event_leaves_no_trace(self, fault_world, event, message):
        """Timelines come from spec JSON: a bad target is a ValueError, and
        neither the log, the clock nor ``active`` remembers the attempt."""
        network = fault_world.service.network
        injector = FaultInjector(fault_world.service)
        injector.apply(TransitDegrade(time_s=1.0, regions=("Europe", "Europe")))
        with pytest.raises(ValueError, match=message):
            injector.perturb(event)
        assert injector.event_log == [injector.degradations[0].describe()]
        assert injector.clock.now_s == 1.0
        assert injector.active == []
        assert not network.down_links and not network.down_pops
        assert network.engine.converged

    def test_clock_regression_rejected(self, fault_world):
        injector = FaultInjector(fault_world.service)
        injector.apply(TransitDegrade(time_s=60.0, regions=("Europe", "Europe")))
        with pytest.raises(ValueError):
            injector.perturb(TransitRestore(time_s=30.0, regions=("Europe", "Europe")))
        injector.apply(TransitRestore(time_s=90.0, regions=("Europe", "Europe")))

    def test_events_are_logged(self, fault_world):
        injector = FaultInjector(fault_world.service)
        injector.apply(LinkDown(time_s=10.0, a="LON", b="ASH"))
        injector.apply(LinkUp(time_s=20.0, a="LON", b="ASH"))
        assert len(injector.event_log) == 2
        assert "link-down" in injector.event_log[0]
        assert "link-up" in injector.event_log[1]


class TestIgpNotifications:
    def test_igp_events_queue_the_networks_deltas(self, fault_world):
        """One notification per speaker, worded by the network, after the
        event's own BGP messages; session events run no SPF and queue none."""
        network = fault_world.service.network
        engine = network.engine
        injector = FaultInjector(fault_world.service)
        try:
            injector.perturb(PopDown(time_s=1.0, pop="SYD"))
            queued = list(engine.queue)
            expected = network.igp_notifications()
            assert queued[-len(expected) :] == expected
            assert all(message.sender != "igp" for message in queued[: -len(expected)])
            assert all(n.changed is not None for n in expected)
            injector.converge()
            upstream = fault_world.service.deployment.upstreams[0]
            injector.perturb(SessionDown(time_s=2.0, asn=upstream))
            assert all(message.sender != "igp" for message in engine.queue)
            injector.converge()
        finally:
            injector.restore()


class TestReversibility:
    def test_link_cut_and_repair_restores_state(self, fault_world):
        service = fault_world.service
        injector = FaultInjector(service)
        meter = make_meter(service)
        before = meter.snapshot()
        route_before = service.network.pop_l2_path("LON", "ASH")

        injector.apply(LinkDown(time_s=10.0, a="LON", b="ASH"))
        assert not service.network.link_is_up("LON", "ASH")
        # The IGP routed around the cut (egress choices may or may not move).
        assert service.network.pop_l2_path("LON", "ASH") != route_before

        injector.apply(LinkUp(time_s=20.0, a="LON", b="ASH"))
        assert service.network.link_is_up("LON", "ASH")
        assert service.network.pop_l2_path("LON", "ASH") == route_before
        assert meter.snapshot().states == before.states
        assert service.network.engine.converged

    def test_pop_failure_and_restore_round_trips(self, fault_world):
        service = fault_world.service
        injector = FaultInjector(service)
        meter = make_meter(service)
        before = meter.snapshot()

        injector.apply(PopDown(time_s=10.0, pop="TYO"))
        assert not service.network.pop_is_up("TYO")
        assert "TYO" not in service.network.active_pops()

        injector.apply(PopUp(time_s=20.0, pop="TYO"))
        assert service.network.pop_is_up("TYO")
        assert meter.snapshot().states == before.states

    def test_session_flap_round_trips_and_is_idempotent(self, fault_world):
        service = fault_world.service
        injector = FaultInjector(service)
        meter = make_meter(service)
        before = meter.snapshot()
        asn = sorted(service.deployment.sessions)[0]

        injector.apply(SessionDown(time_s=10.0, asn=asn))
        mid = meter.snapshot()
        # Downing an already-down session set is a no-op.
        injector.apply(SessionDown(time_s=15.0, asn=asn))
        assert meter.snapshot().states == mid.states

        injector.apply(SessionUp(time_s=20.0, asn=asn))
        assert meter.snapshot().states == before.states
        # Restoring an already-up session set is also a no-op.
        injector.apply(SessionUp(time_s=25.0, asn=asn))
        assert meter.snapshot().states == before.states


class TestImpairedPath:
    def _transit_path(self, service):
        for prefix in sorted(service.topology.prefix_location):
            path = service.path_via_vns("AMS", prefix)
            if path is None:
                continue
            if any(s.kind is SegmentKind.TRANSIT for s in path.segments):
                return path
        pytest.skip("no path with a transit segment in this world")

    def test_no_degradations_returns_path_unchanged(self, fault_world):
        injector = FaultInjector(fault_world.service)
        path = self._transit_path(fault_world.service)
        assert injector.impaired_path(path) is path

    def test_degradation_hits_matching_transit_segments_only(self, fault_world):
        service = fault_world.service
        injector = FaultInjector(service)
        path = self._transit_path(service)
        segment = max(
            (s for s in path.segments if s.kind is SegmentKind.TRANSIT),
            key=lambda s: s.distance_km,
        )
        regions = (segment.start_region.value, segment.end_region.value)

        injector.perturb(
            TransitDegrade(
                time_s=5.0, regions=regions, extra_loss=0.1, extra_delay_ms=25.0
            )
        )
        impaired = injector.impaired_path(path)
        assert impaired.rtt_ms() > path.rtt_ms()
        # VNS's own circuits are never degraded.
        for original, new in zip(path.segments, impaired.segments):
            if original.kind is not SegmentKind.TRANSIT:
                assert new is original

        injector.perturb(TransitRestore(time_s=6.0, regions=regions))
        assert injector.impaired_path(path) is path

    def test_restore_matches_the_corridor_as_a_set(self, fault_world):
        """The impairment matches corridors unordered; so must its end."""
        injector = FaultInjector(fault_world.service)
        injector.perturb(
            TransitDegrade(time_s=1.0, regions=("Europe", "Asia Pacific"))
        )
        injector.perturb(
            TransitRestore(time_s=2.0, regions=("Asia Pacific", "Europe"))
        )
        assert injector.degradations == []

    def test_degradation_stacks_on_an_already_degraded_segment(self, fault_world):
        service = fault_world.service
        injector = FaultInjector(service)
        path = self._transit_path(service)
        segment = next(s for s in path.segments if s.kind is SegmentKind.TRANSIT)
        regions = (segment.start_region.value, segment.end_region.value)
        injector.perturb(
            TransitDegrade(
                time_s=1.0, regions=regions, extra_loss=0.1, extra_delay_ms=25.0
            )
        )
        once = injector.impaired_path(path)
        twice = injector.impaired_path(once)
        index = path.segments.index(segment)
        assert twice.segments[index].extra_loss == pytest.approx(0.2)
        assert twice.segments[index].extra_delay_ms == pytest.approx(50.0)


class TestRestore:
    def test_restore_undoes_everything_still_in_effect(self, fault_world):
        service = fault_world.service
        meter = make_meter(service)
        before = meter.snapshot()
        upstream = service.deployment.upstreams[0]
        injector = FaultInjector(service)
        injector.apply(LinkDown(time_s=1.0, a="LON", b="ASH"))
        injector.apply(PopDown(time_s=2.0, pop="SIN"))
        injector.apply(SessionDown(time_s=3.0, asn=upstream))
        injector.apply(LinkUp(time_s=4.0, a="ASH", b="LON"))  # repaired in-timeline
        injector.apply(TransitDegrade(time_s=5.0, regions=("Europe", "Europe")))
        assert [type(e).__name__ for e in injector.active] == [
            "PopDown",
            "SessionDown",
        ]
        injector.restore()
        assert injector.active == [] and injector.degradations == []
        assert not service.network.down_pops and not service.network.down_links
        assert meter.snapshot().states == before.states
        assert injector.restore() == 0  # idempotent
