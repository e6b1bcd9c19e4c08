"""Unit tests for the BGP speaker."""

import pickle

import pytest

from repro.bgp.attributes import NO_EXPORT, AsPath, Route
from repro.bgp.messages import Update, Withdraw
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")
LOCAL_ASN = 65000


def make_router(router_id="r1", **kwargs) -> BgpRouter:
    return BgpRouter(router_id, LOCAL_ASN, **kwargs)


def ext_update(receiver: str, sender="ext1", asns=(100, 9), next_hop=None) -> Update:
    return Update(
        sender=sender,
        receiver=receiver,
        route=Route(prefix=PFX, as_path=AsPath(asns), next_hop=next_hop or sender),
    )


def wire(router: BgpRouter, peer_id: str, session_type: SessionType, peer_asn=100):
    router.add_session(
        Session(peer_id=peer_id, session_type=session_type, peer_asn=peer_asn)
    )


class TestSessions:
    def test_duplicate_session_rejected(self):
        router = make_router()
        wire(router, "a", SessionType.EBGP)
        with pytest.raises(ValueError):
            wire(router, "a", SessionType.EBGP)

    def test_unknown_sender_raises(self):
        router = make_router()
        with pytest.raises(KeyError):
            router.process(ext_update("r1", sender="stranger"))


class TestReceive:
    def test_ebgp_route_installed_and_selected(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        router.process(ext_update("r1"))
        best = router.best(PFX)
        assert best is not None
        assert best.ebgp
        assert best.learned_from == "ext1"

    def test_as_loop_rejected(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        router.process(ext_update("r1", asns=(100, LOCAL_ASN, 9)))
        assert router.best(PFX) is None

    def test_originator_loop_rejected(self):
        router = make_router()
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        looped = Update(
            sender="rr",
            receiver="r1",
            route=Route(
                prefix=PFX,
                as_path=AsPath((100,)),
                next_hop="r9",
                originator_id="r1",
            ),
        )
        router.process(looped)
        assert router.best(PFX) is None

    def test_local_pref_reset_on_ebgp(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        update = Update(
            sender="ext1",
            receiver="r1",
            route=Route(
                prefix=PFX, as_path=AsPath((100,)), next_hop="ext1", local_pref=9999
            ),
        )
        router.process(update)
        assert router.best(PFX).local_pref == 100

    def test_implicit_withdraw_on_replace(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        router.process(ext_update("r1", asns=(100, 9)))
        router.process(ext_update("r1", asns=(100, 55, 9)))
        assert router.best(PFX).as_path.asns == (100, 55, 9)
        assert len(router.adj_rib_in.routes_for(PFX)) == 1

    def test_withdraw_clears_route(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        router.process(ext_update("r1"))
        router.process(Withdraw(sender="ext1", receiver="r1", prefix=PFX))
        assert router.best(PFX) is None

    def test_withdraw_unknown_is_noop(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        assert router.process(Withdraw(sender="ext1", receiver="r1", prefix=PFX)) == []


class TestAdvertise:
    def test_next_hop_self_toward_ibgp(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        out = router.process(ext_update("r1"))
        ibgp_updates = [m for m in out if isinstance(m, Update) and m.receiver == "rr"]
        assert len(ibgp_updates) == 1
        assert ibgp_updates[0].route.next_hop == "r1"

    def test_as_prepend_toward_ebgp(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        wire(router, "ext2", SessionType.EBGP, peer_asn=200)
        out = router.process(ext_update("r1"))
        ebgp = [m for m in out if isinstance(m, Update) and m.receiver == "ext2"]
        assert len(ebgp) == 1
        assert ebgp[0].route.as_path.asns[0] == LOCAL_ASN

    def test_split_horizon_ebgp(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        out = router.process(ext_update("r1"))
        assert not [m for m in out if m.receiver == "ext1"]

    def test_no_duplicate_advertisement(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        first = router.process(ext_update("r1"))
        # Same route again: nothing new should be emitted.
        second = router.process(ext_update("r1"))
        assert first and not second

    def test_withdraw_propagates(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        router.process(ext_update("r1"))
        out = router.process(Withdraw(sender="ext1", receiver="r1", prefix=PFX))
        withdraws = [m for m in out if isinstance(m, Withdraw)]
        assert any(w.receiver == "rr" for w in withdraws)

    def test_ibgp_learned_not_readvertised_to_ibgp(self):
        router = make_router()
        wire(router, "rr1", SessionType.IBGP, peer_asn=LOCAL_ASN)
        wire(router, "rr2", SessionType.IBGP, peer_asn=LOCAL_ASN)
        update = Update(
            sender="rr1",
            receiver="r1",
            route=Route(prefix=PFX, as_path=AsPath((100,)), next_hop="r9"),
        )
        out = router.process(update)
        assert not [m for m in out if m.receiver == "rr2"]

    def test_no_export_not_sent_over_ebgp(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        out = router.originate(PFX, communities=frozenset({NO_EXPORT}))
        assert not [m for m in out if m.receiver == "ext1"]

    def test_local_pref_not_leaked_over_ebgp(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        wire(router, "ext2", SessionType.EBGP, peer_asn=200)
        router.process(ext_update("r1"))
        sent = router.adj_rib_out.route("ext2", PFX)
        assert sent.local_pref == 100
        assert sent.cluster_list == ()


class TestBestExternal:
    def _setup(self, enable: bool, second_upstream=False) -> tuple[BgpRouter, list]:
        router = make_router(enable_best_external=enable)
        wire(router, "ext1", SessionType.EBGP)
        if second_upstream:
            wire(router, "ext2", SessionType.EBGP, peer_asn=300)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        router.process(ext_update("r1"))
        # A reflected route with much higher preference displaces the
        # local external route as overall best.
        reflected = Update(
            sender="rr",
            receiver="r1",
            route=Route(
                prefix=PFX,
                as_path=AsPath((200, 9)),
                next_hop="r9",
                local_pref=3000,
                originator_id="r9",
                cluster_list=("c1",),
            ),
        )
        out = router.process(reflected)
        return router, out

    def test_without_best_external_route_is_hidden(self):
        router, out = self._setup(enable=False)
        assert not router.best(PFX).ebgp
        # The external route is withdrawn from iBGP: hidden.
        withdraws = [m for m in out if isinstance(m, Withdraw) and m.receiver == "rr"]
        assert withdraws

    def test_with_best_external_route_stays_advertised(self):
        router, out = self._setup(enable=True)
        assert not router.best(PFX).ebgp
        sent = router.adj_rib_out.route("rr", PFX)
        assert sent is not None
        assert sent.as_path.asns == (100, 9)


    def test_better_external_is_advertised_while_best_stays_put(self):
        # Best unchanged (the reflected route), iBGP source changed: the
        # unchanged-outcome skip must compare both.
        router, _ = self._setup(enable=True, second_upstream=True)
        out = router.process(ext_update("r1", sender="ext2", asns=(300,)))
        assert not router.best(PFX).ebgp
        assert [m.route.as_path.asns for m in out if m.receiver == "rr"] == [(300,)]


class TestOrigination:
    def test_originate_and_withdraw(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        out = router.originate(PFX)
        assert [m for m in out if m.receiver == "ext1"]
        assert router.best(PFX) is not None
        out = router.withdraw_origination(PFX)
        assert any(isinstance(m, Withdraw) for m in out)
        assert router.best(PFX) is None


class TestUnchangedOutcomeSkip:
    """A message that leaves (best, iBGP source) unchanged sends nothing,
    and the entry points that re-synchronise Adj-RIB-Out still do."""

    def _router(self) -> BgpRouter:
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        wire(router, "ext2", SessionType.EBGP, peer_asn=200)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        assert router.process(ext_update("r1", sender="ext1", asns=(100, 9)))
        return router

    def test_losing_route_triggers_no_messages(self):
        router = self._router()
        before = router.adj_rib_out.routes_from("rr")
        assert router.process(ext_update("r1", sender="ext2", asns=(200, 7, 9))) == []
        assert router.best(PFX).learned_from == "ext1"
        assert router.adj_rib_out.routes_from("rr") == before

    def test_new_session_is_served_by_the_next_decision(self):
        router = self._router()
        wire(router, "rr2", SessionType.IBGP, peer_asn=LOCAL_ASN)
        out = router.process(ext_update("r1", sender="ext2", asns=(200, 7, 9)))
        assert [m.receiver for m in out] == ["rr2"]

    def test_refresh_resynchronises_after_adj_rib_out_loss(self):
        router = self._router()
        router.adj_rib_out.drop_peer("rr")
        assert [m.receiver for m in router.refresh_advertisements()] == ["rr"]
        assert router.refresh_advertisements() == []


class TestPickle:
    def test_default_router_round_trips(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        router.process(ext_update("r1"))
        clone = pickle.loads(pickle.dumps(router))
        assert clone.best(PFX) == router.best(PFX)
        assert clone.process(ext_update("r1", asns=(100, 8, 9))) == router.process(
            ext_update("r1", asns=(100, 8, 9))
        )
