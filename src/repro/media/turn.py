"""TURN relays and the anycast TURN service.

"User media traffic is pooled from arbitrary Internet locations into VNS
network using transport- or application-layer media relays, such as TURN
relays" (Sec. 3.1); "there is a TURN server in each PoP and all of them
use the same anycast address" (Sec. 4.4).  Relays also provide "user
authentication and access control"; the experiments authenticate out of
band, so every relay here is open and keeps only an allocation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.coords import GeoPoint
from repro.net.addressing import IPv4Address, Prefix
from repro.vns.pop import POPS, PoP
from repro.vns.service import VideoNetworkService


@dataclass(slots=True)
class Allocation:
    """One TURN allocation (RFC 5766 ALLOCATE result)."""

    username: str
    relay: "TurnRelay"
    relayed_port: int

    def __str__(self) -> str:
        return f"{self.username}@{self.relay.pop_code}:{self.relayed_port}"


class TurnRelay:
    """The TURN server at one PoP."""

    def __init__(self, pop_code: str) -> None:
        self.pop_code = pop_code
        self.allocations: list[Allocation] = []
        self._next_port = 49152

    def allocate(self, username: str) -> Allocation:
        """Allocate a relayed port pair for ``username``."""
        allocation = Allocation(
            username=username, relay=self, relayed_port=self._next_port
        )
        self._next_port += 2  # RTP/RTCP pair
        self.allocations.append(allocation)
        return allocation


class TurnService:
    """The anycast TURN service spanning every PoP."""

    def __init__(self, service: VideoNetworkService) -> None:
        self.service = service
        self.anycast_prefix: Prefix = service.deployment.anycast_prefix
        self.relays: dict[str, TurnRelay] = {
            pop.code: TurnRelay(pop.code) for pop in POPS
        }

    @property
    def anycast_address(self) -> IPv4Address:
        """The shared service address users target."""
        return self.anycast_prefix.probe_address

    def request(
        self, username: str, user_asn: int, user_location: GeoPoint
    ) -> tuple[Allocation | None, PoP | None]:
        """An authentication/allocation request from a user.

        Anycast routing decides which PoP's relay answers; the allocation
        is made there.  Returns ``(allocation, pop)``.
        """
        pop = self.service.anycast.entry_pop(user_asn, user_location)
        if pop is None:
            return None, None
        allocation = self.relays[pop.code].allocate(username)
        return allocation, pop
