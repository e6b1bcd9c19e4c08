"""Unit tests for the assembled VNS network (structure and queries)."""

import pytest

from repro.geo.geoip import GeoIPDatabase
from repro.vns.network import (
    VNS_ASN,
    VnsNetwork,
    external_peer_id,
    parse_external_peer_id,
)
from repro.vns.pop import POPS


class TestPeerIds:
    def test_round_trip(self):
        peer_id = external_peer_id(1234, "LON-r1")
        assert parse_external_peer_id(peer_id) == (1234, "LON-r1")

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_external_peer_id("not-an-id")


class TestConstruction:
    def test_route_reflector_mode(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        assert len(net.border_routers) == sum(p.n_border_routers for p in POPS)
        assert len(net.reflectors) == 2
        # Every border has sessions to both reflectors.
        for router in net.border_routers.values():
            assert set(router.sessions) >= set(net.reflectors)

    def test_full_mesh_mode(self):
        net = VnsNetwork(geoip=GeoIPDatabase(), geo_routing=False)
        assert not net.reflectors
        n = len(net.border_routers)
        for router in net.border_routers.values():
            assert len(router.sessions) == n - 1

    def test_igp_l2_paths(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        path = net.pop_l2_path("AMS", "SIN")
        assert path[0] == "AMS" and path[-1] == "SIN"
        assert net.pop_l2_path("AMS", "AMS") == ["AMS"]

    def test_routers_at_pop(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        lon = net.routers_at_pop("LON")
        assert [r.router_id for r in lon] == ["LON-r1", "LON-r2"]

    def test_add_ebgp_session(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        peer_id = net.add_ebgp_session("LON-r1", 777)
        router = net.border_routers["LON-r1"]
        assert router.session_to(peer_id).peer_asn == 777

    def test_asn_constant(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        assert all(r.asn == VNS_ASN for r in net.border_routers.values())


class TestIgpNotifications:
    """What the IGP tells the speakers after an SPF rebuild."""

    @staticmethod
    def _deltas(net):
        return {n.receiver: n.changed for n in net.igp_notifications()}

    def test_one_per_speaker_borders_then_reflectors_in_id_order(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        receivers = [n.receiver for n in net.igp_notifications()]
        assert receivers == sorted(net.border_routers) + sorted(net.reflectors)
        # No rebuild yet: nothing has moved for anyone.
        assert set(self._deltas(net).values()) == {frozenset()}

    def test_delta_is_exactly_the_metrics_that_moved(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        metric = {rid: net.border_routers[rid]._igp_metric for rid in net.border_routers}
        before = {rid: dict(metrics) for rid, metrics in metric.items()}
        assert net.set_link_state("SIN", "SYD", up=False)
        deltas = self._deltas(net)
        for rid, metrics in metric.items():
            moved = {nh for nh in net.pop_of_router if metrics[nh] != before[rid][nh]}
            assert deltas[rid] == moved, rid
        # SYD hangs off SIN alone: the cut strands it from everyone else.
        assert deltas["LON-r1"] == {"SYD-r1", "SYD-r2"}
        assert "SYD-r1" not in deltas["SYD-r1"]  # still 0 to itself
        assert "LON-r1" in deltas["SYD-r1"]

    def test_reflector_sees_its_anchors_delta(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        net.set_link_state("AMS", "SIN", up=False)
        deltas = self._deltas(net)
        assert deltas
        for rr_id, anchor in net.reflector_anchor.items():
            assert deltas[rr_id] == deltas[anchor]

    def test_own_pop_down_moves_every_internal_next_hop(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        net.set_pop_state("AMS", up=False)
        deltas = self._deltas(net)
        everyone = frozenset(net.border_routers)
        assert deltas["AMS-r1"] == everyone  # its own id included
        assert deltas["RR1-AMS"] == everyone  # anchored at AMS-r1
        # Elsewhere: AMS itself, and whatever used to be reached through it.
        assert {"AMS-r1", "AMS-r2"} <= deltas["LON-r1"] < everyone
        assert not deltas["LON-r1"] & {"LON-r1", "LON-r2"}

    def test_unchanged_state_keeps_the_last_delta_unqueued(self):
        net = VnsNetwork(geoip=GeoIPDatabase())
        assert net.set_link_state("SIN", "SYD", up=False)
        assert not net.set_link_state("SIN", "SYD", up=False)  # no SPF run
        net.set_link_state("SIN", "SYD", up=True)
        assert self._deltas(net)["LON-r1"] == {"SYD-r1", "SYD-r2"}  # moved back
