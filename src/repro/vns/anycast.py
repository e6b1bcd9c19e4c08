"""Anycast entry-PoP resolution.

"There is a TURN server in each PoP and all of them use the same anycast
address" (Sec. 4.4).  Which PoP a user's request lands on is decided by
Internet routing: the user's AS picks its best path toward the anycast
prefix, and the final neighbour hands the traffic to VNS at whichever
shared session is nearest to where the traffic already is (the
neighbour's own hot-potato economics).  Incoming traffic therefore
"follows geography to a large extent" — but not perfectly, which is
exactly what Fig. 7 shows.
"""

from __future__ import annotations

from repro.bgp.propagation import AsLevelRouting
from repro.geo.coords import GeoPoint
from repro.net.topology import InternetTopology
from repro.vns.builder import VnsDeployment
from repro.vns.network import VNS_ASN
from repro.vns.pop import PoP, nearest_pop, pop_by_code


class AnycastResolver:
    """Resolves which PoP receives a user's anycast traffic."""

    def __init__(
        self,
        topology: InternetTopology,
        routing: AsLevelRouting,
        deployment: VnsDeployment,
    ) -> None:
        self._topology = topology
        self._routing = routing
        self._deployment = deployment

    def entry_path(self, user_asn: int, user_location: GeoPoint) -> tuple[PoP, tuple[int, ...]] | None:
        """The entry PoP and the AS path the user's traffic takes to it.

        Returns ``None`` if the user's AS has no route to VNS (cannot
        happen on a validated topology, where every AS reaches the Tier-1
        clique).
        """
        as_path = self._routing.path(user_asn, VNS_ASN)
        if as_path is None or len(as_path) < 2:
            return None
        # as_path = (user, ..., neighbour, VNS); walk to the neighbour.
        neighbor_asn = as_path[-2]
        current = user_location
        for asn in as_path[:-1]:
            system = self._topology.autonomous_system(asn)
            current = system.nearest_presence(current).location
        down = self._deployment.network.down_pops
        session_pops = {
            code
            for code in self._deployment.session_pops(neighbor_asn)
            if code not in down
        }
        if not session_pops and down:
            # Anycast re-catchment: with every session PoP of the chosen
            # neighbour failed, its announcement is gone and the routes
            # heard via other neighbours attract the traffic instead.
            # Approximated as the nearest surviving PoP holding any
            # external session (AS-path selection among the remaining
            # neighbours is second-order for catchment geography).
            session_pops = {
                code
                for asn in self._deployment.neighbor_asns
                for code in self._deployment.session_pops(asn)
                if code not in down
            }
        if not session_pops:
            return None
        entry = nearest_pop(current, among=(pop_by_code(code) for code in session_pops))
        return entry, as_path

    def entry_pop(self, user_asn: int, user_location: GeoPoint) -> PoP | None:
        """Just the entry PoP (see :meth:`entry_path`)."""
        resolved = self.entry_path(user_asn, user_location)
        return None if resolved is None else resolved[0]
