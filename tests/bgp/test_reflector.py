"""Unit tests for RFC 4456 route reflection."""

import pytest

from repro.bgp.attributes import Route
from repro.bgp.messages import Update, Withdraw
from repro.bgp.reflector import RouteReflector
from repro.bgp.session import Session, SessionType
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")
ASN = 65000


def make_rr(router_id="rr1", **kwargs) -> RouteReflector:
    return RouteReflector(router_id, ASN, **kwargs)


def client_session(peer_id: str) -> Session:
    return Session(
        peer_id=peer_id, session_type=SessionType.IBGP, peer_asn=ASN, rr_client=True
    )


def nonclient_session(peer_id: str) -> Session:
    return Session(peer_id=peer_id, session_type=SessionType.IBGP, peer_asn=ASN)


def update_from(sender: str, receiver: str, next_hop=None, lp=100) -> Update:
    return Update(
        sender=sender,
        receiver=receiver,
        route=Route(
            prefix=PFX,
            as_path=(100, 9),
            next_hop=next_hop or sender,
            local_pref=lp,
        ),
    )


class TestReflection:
    def test_client_route_reflected_to_other_clients(self):
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(client_session("rB"))
        rr.add_session(client_session("rC"))
        out = rr.process(update_from("rA", "rr1"))
        receivers = {m.receiver for m in out if isinstance(m, Update)}
        assert receivers == {"rB", "rC"}  # never back to the sender

    def test_client_route_reflected_to_nonclients(self):
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(nonclient_session("rr2"))
        out = rr.process(update_from("rA", "rr1"))
        assert {m.receiver for m in out if isinstance(m, Update)} == {"rr2"}

    def test_nonclient_route_reflected_to_clients_only(self):
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(nonclient_session("rr2"))
        rr.add_session(nonclient_session("rr3"))
        out = rr.process(update_from("rr2", "rr1", next_hop="rX"))
        assert {m.receiver for m in out if isinstance(m, Update)} == {"rA"}

    def test_reflection_attributes_set(self):
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(client_session("rB"))
        out = rr.process(update_from("rA", "rr1"))
        route = next(m.route for m in out if isinstance(m, Update))
        assert route.originator_id == "rA"
        assert route.cluster_list == ("rr1",)  # the cluster id is the router id

    def test_next_hop_preserved(self):
        # A reflector must NOT set next-hop-self: clients need the real
        # egress to compute hot-potato metrics and the geo reflector needs
        # it to compute distances.
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(client_session("rB"))
        out = rr.process(update_from("rA", "rr1", next_hop="rA"))
        route = next(m.route for m in out if isinstance(m, Update))
        assert route.next_hop == "rA"

    def test_cluster_loop_rejected(self):
        rr = make_rr()
        rr.add_session(nonclient_session("rr2"))
        looped = Update(
            sender="rr2",
            receiver="rr1",
            route=Route(
                prefix=PFX,
                as_path=(100,),
                next_hop="rX",
                cluster_list=("rr1",),
            ),
        )
        rr.process(looped)
        assert rr.best(PFX) is None

    def test_withdraw_reflected(self):
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(client_session("rB"))
        rr.process(update_from("rA", "rr1"))
        out = rr.process(Withdraw(sender="rA", receiver="rr1", prefix=PFX))
        assert any(isinstance(m, Withdraw) and m.receiver == "rB" for m in out)

    def test_best_switch_updates_clients(self):
        rr = make_rr()
        rr.add_session(client_session("rA"))
        rr.add_session(client_session("rB"))
        rr.add_session(client_session("rC"))
        rr.process(update_from("rA", "rr1", lp=100))
        out = rr.process(update_from("rB", "rr1", lp=500))
        # rC must learn the new best (via rB); rA too.
        updated = {m.receiver for m in out if isinstance(m, Update)}
        assert "rC" in updated and "rA" in updated
        sent_to_c = rr.adj_rib_out.route("rC", PFX)
        assert sent_to_c.next_hop == "rB"
