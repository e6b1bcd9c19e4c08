"""RFC 4456 route reflection.

The reflector relaxes the iBGP re-advertisement rule: routes learned from
clients are reflected to everyone, routes learned from non-clients to
clients only.  ORIGINATOR_ID and CLUSTER_LIST prevent loops.  Unlike a
border router, a reflector does *not* set next-hop-self, so clients resolve
the original egress router as next hop — which is what makes the geo
reflector's distance computation (egress location vs prefix location)
meaningful, and what keeps the hot-potato IGP tie-break working for clients
when local preferences tie.
"""

from __future__ import annotations

from repro.bgp.attributes import Route
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session


class RouteReflector(BgpRouter):
    """A route reflector; its RFC 4456 cluster id is its router id, so
    every reflector is a cluster of its own."""

    def _acceptable(self, route: Route, session: Session) -> bool:
        if not super()._acceptable(route, session):
            return False
        if session.is_ibgp and self.router_id in route.cluster_list:
            return False  # cluster loop
        return True

    def _ibgp_source(self, best: Route, candidates: list[Route]) -> Route | None:
        return best  # a reflector re-advertises iBGP-learned routes too

    def _ibgp_payload(self, best: Route | None) -> tuple[Route | None, str | None, bool]:
        """RFC 4456: reflect the best route, preserving its next hop.

        Unlike an ordinary speaker, a reflector re-advertises iBGP-learned
        routes — to everyone when learned from a client, to clients only
        when learned from a non-client.
        """
        if best is None:
            return None, None, True
        if best.ebgp or best.learned_from is None:
            # eBGP-learned or locally originated: plain iBGP advertisement,
            # but a reflector does not rewrite the next hop.
            return best.sent(), best.learned_from, True
        learned_session = self.sessions.get(best.learned_from)
        from_client = learned_session is not None and learned_session.rr_client
        originator = best.originator_id or best.learned_from or self.router_id
        reflected = best.reflected(originator=originator, cluster_id=self.router_id)
        return reflected.sent(), best.learned_from, from_client
