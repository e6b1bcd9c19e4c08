"""Unit tests for the BGP speaker."""

import pickle

import pytest

from repro.bgp.attributes import NO_EXPORT, Route
from repro.bgp.messages import IgpNotification, Update, Withdraw
from repro.bgp.policy import exports_to, strip_ibgp_only_attributes
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.net.addressing import Prefix
from repro.net.relationships import Relationship
from repro.perf import counters as perf

PFX = Prefix.parse("203.0.113.0/24")
LOCAL_ASN = 65000


def make_router(router_id="r1", **kwargs) -> BgpRouter:
    return BgpRouter(router_id, LOCAL_ASN, **kwargs)


def ext_update(receiver: str, sender="ext1", asns=(100, 9), next_hop=None) -> Update:
    return Update(
        sender=sender,
        receiver=receiver,
        route=Route(prefix=PFX, as_path=asns, next_hop=next_hop or sender),
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
                as_path=(100,),
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
                prefix=PFX, as_path=(100,), next_hop="ext1", local_pref=9999
            ),
        )
        router.process(update)
        assert router.best(PFX).local_pref == 100

    def test_implicit_withdraw_on_replace(self):
        router = make_router()
        wire(router, "ext1", SessionType.EBGP)
        router.process(ext_update("r1", asns=(100, 9)))
        router.process(ext_update("r1", asns=(100, 55, 9)))
        assert router.best(PFX).as_path == (100, 55, 9)
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
        assert ebgp[0].route.as_path[0] == LOCAL_ASN

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
            route=Route(prefix=PFX, as_path=(100,), next_hop="r9"),
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


class TestGaoRexfordExport:
    """The eBGP branch no built world takes: VNS has no customers.

    A hand-built speaker with a provider, an iBGP peer, a peer and a
    customer session (in that configuration order).  Every message must
    be what :func:`~repro.bgp.policy.exports_to` predicts per session, and a best route
    no eBGP session may receive visits only the eBGP sessions that hold
    the prefix.
    """

    RELATIONSHIPS = {100: Relationship.PROVIDER, 200: Relationship.PEER, 300: Relationship.CUSTOMER}

    def make(self) -> BgpRouter:
        router = make_router(relationships=self.RELATIONSHIPS)
        wire(router, "prov", SessionType.EBGP, peer_asn=100)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        wire(router, "peer", SessionType.EBGP, peer_asn=200)
        wire(router, "cust", SessionType.EBGP, peer_asn=300)
        return router

    def predicted(self, router: BgpRouter, held: set[str]) -> list:
        """The eBGP messages ``exports_to`` implies for the current best."""
        best = router.best(PFX)
        messages = []
        for peer_id, session in router.sessions.items():
            if not session.is_ebgp:
                continue
            exported = None
            if best is not None and best.learned_from != peer_id and NO_EXPORT not in best.communities:
                exported = best if exports_to(best, session.peer_asn, self.RELATIONSHIPS) else None
            if exported is not None:
                cleaned = strip_ibgp_only_attributes(exported)
                route = cleaned.sent("r1", (LOCAL_ASN,) + cleaned.as_path)
                messages.append(Update(sender="r1", receiver=peer_id, route=route))
            elif peer_id in held:
                messages.append(Withdraw(sender="r1", receiver=peer_id, prefix=PFX))
        return messages

    def ebgp_part(self, router: BgpRouter, out: list) -> list:
        return [m for m in out if router.sessions[m.receiver].is_ebgp]

    def visited(self, router: BgpRouter, monkeypatch) -> list[str]:
        seen: list[str] = []
        emit = BgpRouter._emit

        def recording(self, peer_id, prefix, desired, messages):
            seen.append(peer_id)
            emit(self, peer_id, prefix, desired, messages)

        monkeypatch.setattr(BgpRouter, "_emit", recording)
        return seen

    def test_peer_learned_best_goes_to_the_customer_only(self, monkeypatch):
        router = self.make()
        seen = self.visited(router, monkeypatch)
        out = router.process(ext_update("r1", sender="peer", asns=(200, 9)))
        assert self.ebgp_part(router, out) == self.predicted(router, held=set())
        assert [m.receiver for m in self.ebgp_part(router, out)] == ["cust"]
        assert seen == ["prov", "rr", "peer", "cust"]  # exportable: every session

    def test_no_export_best_goes_to_nobody(self, monkeypatch):
        router = self.make()
        seen = self.visited(router, monkeypatch)
        out = router.originate(PFX, communities=frozenset({NO_EXPORT}))
        assert self.ebgp_part(router, out) == self.predicted(router, held=set()) == []
        assert [m.receiver for m in out] == ["rr"]
        assert seen == ["rr"]  # no eBGP session holds the prefix: none visited

    def test_withdrawal_reaches_exactly_the_sessions_that_held_it(self, monkeypatch):
        router = self.make()
        out = router.process(ext_update("r1", sender="cust", asns=(300, 9)))
        assert self.ebgp_part(router, out) == self.predicted(router, held=set())
        assert [m.receiver for m in self.ebgp_part(router, out)] == ["prov", "peer"]
        held = set(router.adj_rib_out.peers(PFX)) - {"rr"}
        assert held == {"prov", "peer"}
        # A no-export origination loses to the customer route (LOCAL_PREF
        # 300 > 100) until the customer withdraws; then no eBGP session may
        # receive the best, and only the two that held the prefix are visited.
        router.originate(PFX, communities=frozenset({NO_EXPORT}))
        seen = self.visited(router, monkeypatch)
        out = router.process(Withdraw(sender="cust", receiver="r1", prefix=PFX))
        assert self.ebgp_part(router, out) == self.predicted(router, held=held)
        assert [(type(m), m.receiver) for m in self.ebgp_part(router, out)] == [
            (Withdraw, "prov"),
            (Withdraw, "peer"),
        ]
        assert seen == ["prov", "rr", "peer"]
        seen.clear()
        out = router.withdraw_origination(PFX)
        assert self.ebgp_part(router, out) == []
        assert seen == ["rr"]

    def test_withdrawal_of_a_customer_only_route(self, monkeypatch):
        router = self.make()
        router.process(ext_update("r1", sender="peer", asns=(200, 9)))
        seen = self.visited(router, monkeypatch)
        out = router.process(Withdraw(sender="peer", receiver="r1", prefix=PFX))
        assert self.ebgp_part(router, out) == self.predicted(router, held={"cust"})
        assert [(type(m), m.receiver) for m in out] == [(Withdraw, "rr"), (Withdraw, "cust")]
        assert seen == ["rr", "cust"]


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
                as_path=(200, 9),
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
        assert sent.as_path == (100, 9)


    def test_better_external_is_advertised_while_best_stays_put(self):
        # Best unchanged (the reflected route), iBGP source changed: the
        # unchanged-outcome skip must compare both.
        router, _ = self._setup(enable=True, second_upstream=True)
        out = router.process(ext_update("r1", sender="ext2", asns=(300,)))
        assert not router.best(PFX).ebgp
        assert [m.route.as_path for m in out if m.receiver == "rr"] == [(300,)]


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


class TestNextHopTracking:
    """An IGP notification re-decides only what its delta can change."""

    PREFIXES = {
        "e1": Prefix.parse("198.51.100.0/24"),
        "e2": Prefix.parse("192.0.2.0/24"),
    }
    OWN = Prefix.parse("203.0.114.0/24")

    def _router(self, metrics: dict[str, float]):
        """``r1`` with PFX via e1 and e2, one prefix via each alone, one
        originated; returns the router and the prefixes it re-decides."""
        router = make_router(igp_metric=metrics)
        wire(router, "rr1", SessionType.IBGP, peer_asn=LOCAL_ASN)
        wire(router, "rr2", SessionType.IBGP, peer_asn=LOCAL_ASN)
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        for sender, next_hop, asn in (("rr1", "e1", 300), ("rr2", "e2", 400)):
            for prefix in (PFX, self.PREFIXES[next_hop]):
                route = Route(prefix=prefix, as_path=(asn, 9), next_hop=next_hop)
                router.process(Update(sender=sender, receiver="r1", route=route))
        router.originate(self.OWN)
        decided: list[Prefix] = []
        decide = router._decide

        def recording_decide(prefix):
            decided.append(prefix)
            return decide(prefix)

        router._decide = recording_decide
        return router, decided

    @staticmethod
    def _ribs(router: BgpRouter):
        peers = list(router.sessions)
        return (
            dict(router.loc_rib.items()),
            {peer: router.adj_rib_in.routes_from(peer) for peer in peers},
            {peer: router.adj_rib_out.routes_from(peer) for peer in peers},
        )

    def test_empty_delta_is_a_no_op(self):
        metrics = {"e1": 1.0, "e2": 2.0}
        router, decided = self._router(metrics)
        before = self._ribs(router)
        metrics["e1"] = 9.0  # moved, but the IGP says nothing this speaker uses did
        assert router.process(IgpNotification(receiver="r1", changed=frozenset())) == []
        assert decided == []
        assert self._ribs(router) == before

    def test_one_next_hop_redecides_exactly_the_prefixes_through_it(self):
        metrics = {"e1": 1.0, "e2": 2.0}
        router, decided = self._router(metrics)
        assert router.best(PFX).next_hop == "e1"
        metrics["e1"] = 9.0
        router.process(IgpNotification(receiver="r1", changed=frozenset({"e1"})))
        assert decided == sorted([PFX, self.PREFIXES["e1"]])
        assert router.best(PFX).next_hop == "e2"  # hot potato moved with the metric

    def test_own_id_in_the_delta_redecides_originated_prefixes(self):
        router, decided = self._router({})
        router.process(IgpNotification(receiver="r1", changed=frozenset({"r1"})))
        assert decided == [self.OWN]

    def test_no_delta_still_walks_the_whole_table(self):
        metrics = {"e1": 1.0, "e2": 2.0}
        router, decided = self._router(metrics)
        metrics["e1"] = 9.0
        router.process(IgpNotification(receiver="r1"))
        assert decided == sorted([PFX, *self.PREFIXES.values(), self.OWN])
        assert router.best(PFX).next_hop == "e2"

    def test_work_counters(self):
        router, _ = self._router({})
        perf.reset()
        perf.enable()
        try:
            router.process(IgpNotification(receiver="r1", changed=frozenset()))
            router.process(IgpNotification(receiver="r1", changed=frozenset({"e1"})))
            router.process(IgpNotification(receiver="r1"))  # full walk: not tracked
            counts = {
                name: perf.counter(f"bgp.nht.{name}")
                for name in ("notifications", "empty", "prefixes_affected")
            }
        finally:
            perf.disable()
            perf.reset()
        assert counts == {"notifications": 2, "empty": 1, "prefixes_affected": 2}

    def test_delta_sends_what_the_full_walk_sends(self):
        sent = []
        for changed in (frozenset({"e1"}), None):
            metrics = {"e1": 1.0, "e2": 2.0}
            router, _ = self._router(metrics)
            metrics["e1"] = 9.0
            sent.append(router.process(IgpNotification(receiver="r1", changed=changed)))
        assert sent[0] == sent[1] != []


class TestBatch:
    """A whole inbox is installed first and decided once per touched
    prefix — and is as atomic as one message was."""

    OTHER = Prefix.parse("198.51.100.0/24")

    def _router(self) -> BgpRouter:
        router = make_router()
        wire(router, "ext1", SessionType.EBGP, peer_asn=100)
        wire(router, "ext2", SessionType.EBGP, peer_asn=200)
        wire(router, "rr", SessionType.IBGP, peer_asn=LOCAL_ASN)
        return router

    def test_only_the_final_winner_is_advertised(self):
        router = self._router()
        inbox = [
            ext_update("r1", sender="ext2", asns=(200, 7, 9)),
            ext_update("r1", sender="ext1", asns=(100, 9)),  # shorter: wins
        ]
        one_by_one = self._router()
        stream = [m for message in inbox for m in one_by_one.process(message)]
        out = router.process_batch(inbox)
        assert [m.receiver for m in out] == ["ext2", "rr"]  # split horizon at ext1
        assert len(stream) > len(out)  # the stream advertised ext2's route first
        assert router.best(PFX) == one_by_one.best(PFX)
        assert TestNextHopTracking._ribs(router) == TestNextHopTracking._ribs(one_by_one)

    def test_touched_prefixes_are_decided_once_in_sorted_order(self):
        router = self._router()
        other = Route(prefix=self.OTHER, as_path=(100, 9), next_hop="ext1")
        out = router.process_batch(
            [
                ext_update("r1", sender="ext1"),
                Update(sender="ext1", receiver="r1", route=other),
                ext_update("r1", sender="ext2", asns=(200, 7, 9)),
            ]
        )
        assert [m.prefix for m in out if m.receiver == "rr"] == sorted([PFX, self.OTHER])

    def test_poisoned_inbox_installs_nothing_and_raises(self):
        router = self._router()
        router.process(ext_update("r1", sender="ext1"))
        before = TestNextHopTracking._ribs(router)
        inbox = [
            ext_update("r1", sender="ext2", asns=(200, 9)),  # would win the tie-break
            Withdraw(sender="ext1", receiver="r1", prefix=PFX),
            ext_update("r1", sender="stranger"),
        ]
        with pytest.raises(KeyError, match="stranger"):
            router.process_batch(inbox)
        assert TestNextHopTracking._ribs(router) == before
        assert router.refresh_advertisements() == []  # nothing stale left behind

    def test_full_walk_in_a_batch_runs_once_and_sends_each_advertisement_once(self):
        router = self._router()
        router.process(ext_update("r1", sender="ext1"))
        router.adj_rib_out.drop_peer("rr")  # something only the full walk repairs
        decided: list[Prefix] = []
        decide = router._decide
        router._decide = lambda prefix: decided.append(prefix) or decide(prefix)
        other = Route(prefix=self.OTHER, as_path=(200, 9), next_hop="ext2")
        out = router.process_batch(
            [
                IgpNotification(receiver="r1"),
                Update(sender="ext2", receiver="r1", route=other),
                IgpNotification(receiver="r1"),
            ]
        )
        assert decided == sorted([PFX, self.OTHER])
        assert sorted((m.receiver, m.prefix) for m in out) == sorted(
            [("rr", PFX), ("rr", self.OTHER), ("ext1", self.OTHER)]
        )
        assert router.refresh_advertisements() == []

    def test_update_then_its_withdraw_sends_nothing(self):
        router = self._router()
        router.process(ext_update("r1", sender="ext2", asns=(200, 7, 9)))
        winner = ext_update("r1", sender="ext1", asns=(100, 9))
        retraction = Withdraw(sender="ext1", receiver="r1", prefix=PFX)
        assert router.process_batch([winner, retraction]) == []
        assert router.best(PFX).learned_from == "ext2"
        # One at a time the peers hear the winner and then its retraction.
        assert router.process(winner) and router.process(retraction)

    def test_message_queued_behind_its_sessions_failure_is_dropped(self):
        router = self._router()
        router.process(ext_update("r1", sender="ext2", asns=(200, 7, 9)))
        router.fail_session("ext1")
        inbox = [ext_update("r1", sender="ext1"), ext_update("r1", sender="ext2", asns=(200, 9))]
        out = router.process_batch(inbox)
        assert router.adj_rib_in.routes_from("ext1") == {}
        assert router.best(PFX).learned_from == "ext2"
        assert all(m.receiver != "ext1" for m in out)

    def test_next_hop_counters_count_notifications_not_batches(self):
        router, _ = TestNextHopTracking()._router({})
        perf.reset()
        perf.enable()
        try:
            router.process_batch(
                [
                    IgpNotification(receiver="r1", changed=frozenset()),
                    IgpNotification(receiver="r1", changed=frozenset({"e1"})),
                    IgpNotification(receiver="r1", changed=frozenset({"e1", "e2"})),
                ]
            )
            counts = {
                name: perf.counter(f"bgp.nht.{name}")
                for name in ("notifications", "empty", "prefixes_affected")
            }
            decisions = perf.counter("bgp.decide.calls")
        finally:
            perf.disable()
            perf.reset()
        assert counts == {"notifications": 3, "empty": 1, "prefixes_affected": 2 + 3}
        assert decisions == 3  # the union, each prefix once


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
