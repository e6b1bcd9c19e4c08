"""Unit tests for TURN relays and the anycast TURN service."""

import pytest

from repro.media.turn import TurnRelay, TurnService
from repro.net.asn import ASType


class TestTurnRelay:
    def test_open_relay_allocates(self):
        relay = TurnRelay("AMS")
        allocation = relay.allocate("alice")
        assert allocation is not None
        assert allocation.relayed_port >= 49152
        assert len(relay.allocations) == 1

    def test_port_pairs(self):
        relay = TurnRelay("AMS")
        a = relay.allocate("alice")
        b = relay.allocate("bob")
        assert b.relayed_port == a.relayed_port + 2


class TestTurnService:
    def test_anycast_address_shared(self, small_world):
        service = TurnService(small_world.service)
        assert str(service.anycast_address).startswith("198.51.100.")

    def test_request_resolves_pop(self, small_world):
        service = TurnService(small_world.service)
        topology = small_world.topology
        user = next(
            s for s in topology.ases.values() if s.as_type is ASType.EC and s.prefixes
        )
        allocation, pop = service.request("alice", user.asn, user.home.location)
        assert pop is not None
        assert allocation is not None
        assert allocation.relay.pop_code == pop.code
        assert len(service.relays[pop.code].allocations) == 1
