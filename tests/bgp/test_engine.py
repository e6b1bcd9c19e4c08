"""Unit tests for the BGP message engine."""

import pytest

from repro.bgp.attributes import Route
from repro.bgp.engine import BgpEngine, ConvergenceError
from repro.bgp.messages import IgpNotification, Update
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")
ASN = 65000


def build_pair() -> tuple[BgpEngine, BgpRouter, BgpRouter]:
    engine = BgpEngine()
    a = BgpRouter("a", ASN)
    b = BgpRouter("b", ASN)
    a.add_session(Session(peer_id="b", session_type=SessionType.IBGP, peer_asn=ASN))
    b.add_session(Session(peer_id="a", session_type=SessionType.IBGP, peer_asn=ASN))
    a.add_session(Session(peer_id="ext", session_type=SessionType.EBGP, peer_asn=100))
    engine.add_router(a)
    engine.add_router(b)
    return engine, a, b


def ext_update() -> Update:
    return Update(
        sender="ext",
        receiver="a",
        route=Route(prefix=PFX, as_path=(100, 9), next_hop="ext"),
    )


class TestEngine:
    def test_duplicate_router_rejected(self):
        engine = BgpEngine()
        engine.add_router(BgpRouter("a", ASN))
        with pytest.raises(ValueError):
            engine.add_router(BgpRouter("a", ASN))

    def test_delivery_propagates(self):
        engine, a, b = build_pair()
        engine.inject(ext_update())
        delivered = engine.run()
        assert delivered >= 2
        assert a.best(PFX) is not None
        assert b.best(PFX) is not None
        assert b.best(PFX).next_hop == "a"

    def test_converged_flag(self):
        engine, *_ = build_pair()
        assert engine.converged
        engine.inject(ext_update())
        assert not engine.converged
        engine.run()
        assert engine.converged

    def test_step_returns_false_when_empty(self):
        engine, *_ = build_pair()
        assert not engine.step()

    def test_external_outbox_captures_ebgp(self):
        engine, a, b = build_pair()
        engine.inject(a.originate(PFX))
        engine.run()
        assert any(m.receiver == "ext" for m in engine.external_outbox)

    def test_message_budget(self):
        engine, *_ = build_pair()
        engine.inject(ext_update())
        with pytest.raises(ConvergenceError):
            engine.run(max_messages=0)

    def test_budget_is_exact(self):
        # The engine must deliver exactly max_messages — never one more.
        engine, *_ = build_pair()
        engine.inject(ext_update())
        with pytest.raises(ConvergenceError) as excinfo:
            engine.run(max_messages=1)
        assert engine.delivered == 1
        assert excinfo.value.delivered == 1

    def test_zero_budget_delivers_nothing(self):
        engine, *_ = build_pair()
        engine.inject(ext_update())
        with pytest.raises(ConvergenceError):
            engine.run(max_messages=0)
        assert engine.delivered == 0
        assert engine.last_delivered is None

    def test_budget_not_raised_on_exact_convergence(self):
        # A run that converges in exactly max_messages must not raise.
        engine, *_ = build_pair()
        engine.inject(ext_update())
        needed = engine.run()
        engine2, *_ = build_pair()
        engine2.inject(ext_update())
        assert engine2.run(max_messages=needed) == needed

    def test_unknown_router_lookup(self):
        engine, *_ = build_pair()
        with pytest.raises(KeyError):
            engine.router("zzz")

    def test_inject_single_message(self):
        engine, a, b = build_pair()
        engine.inject(ext_update())
        engine.run()
        assert engine.delivered >= 1


    def test_inject_queues_one_tuple_message_as_one(self):
        # An Update is a tuple of three fields, and so an iterable: inject
        # must queue it whole, not its fields.
        engine, a, b = build_pair()
        update = ext_update()
        engine.inject(update)
        assert engine.queue == [update]
        engine.inject((ext_update(), ext_update()))
        assert len(engine.queue) == 3
        assert all(type(message) is Update for message in engine.queue)

    def test_inject_accepts_any_iterable_of_messages(self):
        engine, a, b = build_pair()
        engine.inject(ext_update() for _ in range(2))
        engine.inject((ext_update(),))
        assert len(engine.queue) == 3

    @pytest.mark.parametrize("bad", ["not a message", 42, None])
    def test_inject_rejects_non_messages(self, bad):
        engine, a, b = build_pair()
        with pytest.raises(TypeError):
            engine.inject(bad)
        assert not engine.queue  # a str is not char-split into the queue


class TestSchedule:
    """``run`` serves whole inboxes, oldest pending message first;
    ``step`` delivers the single oldest message."""

    @staticmethod
    def recording(engine: BgpEngine) -> list[tuple[str, int]]:
        """Log ``(receiver, batch size)`` per turn; speakers answer nothing."""
        turns: list[tuple[str, int]] = []
        for router_id, router in engine.routers.items():
            router.process_batch = (
                lambda batch, router_id=router_id: turns.append((router_id, len(batch))) or []
            )
        return turns

    @staticmethod
    def note(receiver: str) -> IgpNotification:
        return IgpNotification(receiver=receiver)

    def test_run_hands_each_speaker_its_whole_inbox_in_order_of_oldest_message(self):
        engine, a, b = build_pair()
        turns = self.recording(engine)
        engine.inject([self.note("b"), self.note("a"), self.note("b"), self.note("ext")])
        assert [m.receiver for m in engine.queue] == ["b", "a", "b", "ext"]
        assert engine.pending_by_receiver() == {"b": 2, "a": 1, "ext": 1}
        assert engine.run() == 4
        assert turns == [("b", 2), ("a", 1)]
        assert [m.receiver for m in engine.external_outbox] == ["ext"]

    def test_step_delivers_the_single_oldest_message(self):
        engine, a, b = build_pair()
        turns = self.recording(engine)
        engine.inject([self.note("b"), self.note("a"), self.note("b")])
        while engine.step():
            pass
        assert turns == [("b", 1), ("a", 1), ("b", 1)]
        assert engine.delivered == 3

    def test_budget_cuts_the_last_inbox_and_keeps_arrival_order(self):
        engine, a, b = build_pair()
        turns = self.recording(engine)
        first, second, third = self.note("b"), self.note("a"), self.note("b")
        engine.inject([first, second, third, self.note("b")])
        with pytest.raises(ConvergenceError) as excinfo:
            engine.run(max_messages=2)
        assert turns == [("b", 2)] and engine.delivered == 2
        assert engine.last_delivered is third
        assert excinfo.value.queue_depths == {"a": 1, "b": 1}
        assert engine.queue[0] is second  # b's remainder queues behind a's message
        assert engine.run() == 2 and turns[1:] == [("a", 1), ("b", 1)]

    def test_replies_join_the_inbox_their_receiver_already_has(self):
        engine, a, b = build_pair()
        engine.inject([ext_update(), self.note("b")])
        turns = self.recording(engine)
        del a.process_batch  # a really speaks (an update to b); b only records
        assert engine.run() == 3
        assert turns == [("b", 2)]


class TestDiagnostics:
    def test_budget_error_carries_queue_snapshot(self):
        engine, a, b = build_pair()
        engine.inject(ext_update())
        with pytest.raises(ConvergenceError) as excinfo:
            engine.run(max_messages=1)
        error = excinfo.value
        assert error.delivered == 1
        assert error.total_delivered == engine.delivered == 1
        assert error.pending == len(engine.queue)
        assert error.queue_depths == engine.pending_by_receiver()
        assert error.last_message == engine.last_delivered
        assert "still pending" in str(error)

    def test_diagnostics_distinguish_per_call_from_cumulative(self):
        # `delivered` is this call's count; `total_delivered` is the
        # engine's lifetime count — they diverge on the second run call.
        engine, a, b = build_pair()
        engine.inject(ext_update())
        first = engine.run()
        assert engine.delivered == first
        engine.inject(
            Update(
                sender="ext",
                receiver="a",
                route=Route(
                    prefix=Prefix.parse("198.51.100.0/24"),
                    as_path=(100, 9),
                    next_hop="ext",
                ),
            )
        )
        with pytest.raises(ConvergenceError) as excinfo:
            engine.run(max_messages=1)
        error = excinfo.value
        assert error.delivered == 1
        assert error.total_delivered == first + 1
        assert engine.delivered == first + 1

    def test_last_delivered_tracks_messages(self):
        engine, a, b = build_pair()
        assert engine.last_delivered is None
        update = ext_update()
        engine.inject(update)
        engine.step()
        assert engine.last_delivered == update


class TestIgpNotification:
    def test_notification_triggers_refresh(self):
        engine, a, b = build_pair()
        engine.inject(ext_update())
        engine.run()
        # A notification to a speaker with state re-runs its decisions;
        # with nothing changed, nothing new is advertised.
        engine.inject(IgpNotification(receiver="a"))
        engine.run()
        assert engine.converged
        assert a.best(PFX) is not None
        assert b.best(PFX) is not None

    def test_notification_to_empty_router_is_quiet(self):
        engine, a, b = build_pair()
        engine.inject(IgpNotification(receiver="b"))
        assert engine.run() == 1
        assert b.best(PFX) is None
