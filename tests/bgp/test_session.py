"""Unit tests for session descriptors."""

import pickle
from dataclasses import replace

import pytest

from repro.bgp.session import Session, SessionType


@pytest.mark.parametrize("session_type", list(SessionType))
class TestSessionKind:
    """``is_ebgp`` / ``is_ibgp`` are stored at construction; every way of
    making a session must derive them from ``session_type`` again."""

    def test_constructed(self, session_type):
        session = Session(peer_id="p", session_type=session_type, peer_asn=1)
        assert session.is_ebgp == (session_type is SessionType.EBGP)
        assert session.is_ibgp == (session_type is SessionType.IBGP)

    def test_pickle_round_trip(self, session_type):
        session = Session(peer_id="p", session_type=session_type, peer_asn=1)
        restored = pickle.loads(pickle.dumps(session))
        assert restored == session
        assert (restored.is_ebgp, restored.is_ibgp) == (session.is_ebgp, session.is_ibgp)

    def test_replace_session_type(self, session_type):
        session = Session(peer_id="p", session_type=session_type, peer_asn=1)
        other = next(t for t in SessionType if t is not session_type)
        flipped = replace(session, session_type=other)
        assert flipped.is_ebgp == (other is SessionType.EBGP)
        assert flipped.is_ibgp == (other is SessionType.IBGP)

    def test_flags_are_not_part_of_the_value(self, session_type):
        session = Session(peer_id="p", session_type=session_type, peer_asn=1)
        assert repr(session) == (
            f"Session(peer_id='p', session_type={session_type!r}, peer_asn=1, "
            "rr_client=False)"
        )
        assert hash(session) == hash(
            Session(peer_id="p", session_type=session_type, peer_asn=1)
        )
