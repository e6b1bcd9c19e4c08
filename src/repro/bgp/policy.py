"""The business policy a border router applies over eBGP.

Two rules from operational practice, read off one relationship table
(neighbour ASN -> :class:`~repro.net.relationships.Relationship`):

* On import, a route gets a LOCAL_PREF by business relationship
  (customer > peer > provider) and a community recording that relationship;
  a neighbour the table does not name is refused.
* On export, Gao-Rexford: everything to customers; only customer-learned or
  locally originated routes to peers and providers; ``no-export`` to nobody.

The relationship community is what lets a border router, exporting a route
that arrived over iBGP, still know where the route originally entered the
AS — exactly how real networks implement valley-free export.  The speaker
(:class:`~repro.bgp.router.BgpRouter`) applies the rules on eBGP sessions
only.  Without a table (``None``) they accept and export routes as
received, ``no-export`` aside.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, NO_EXPORT, Route
from repro.net.relationships import Relationship

#: Community tags recording how a route entered the AS.
RELATIONSHIP_COMMUNITY = {
    Relationship.CUSTOMER: "rel:customer",
    Relationship.PEER: "rel:peer",
    Relationship.PROVIDER: "rel:provider",
}

#: Read once per eBGP export decision: a constant, not a lookup keyed by
#: an enum member (``Enum.__hash__`` runs in Python).
_CUSTOMER_COMMUNITY = RELATIONSHIP_COMMUNITY[Relationship.CUSTOMER]

#: Conventional LOCAL_PREF ladder: prefer customer, then peer, then provider.
RELATIONSHIP_LOCAL_PREF = {
    Relationship.CUSTOMER: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
}

#: One set object per distinct tagged value, for every speaker in the
#: process.  A set is an object the cyclic collector tracks, and a
#: converged border holds a route per (eBGP peer, prefix): routes with
#: equal tags share one.  The sets are immutable, so sharing them across
#: speakers and worlds changes identities, never an answer.
_tagged: dict[frozenset[str], frozenset[str]] = {}


def import_verdict(
    route: Route, peer_asn: int, relationships: Mapping[int, Relationship] | None
) -> tuple[int, frozenset[str]] | None:
    """``(local_pref, communities)`` to store a route received over eBGP
    from ``peer_asn`` with, or ``None`` to refuse it."""
    if relationships is None:
        return DEFAULT_LOCAL_PREF, route.communities
    relationship = relationships.get(peer_asn)
    if relationship is None:
        return None  # no business relationship, reject
    tagged = route.communities.union((RELATIONSHIP_COMMUNITY[relationship],))
    return RELATIONSHIP_LOCAL_PREF[relationship], _tagged.setdefault(tagged, tagged)


def _to_anyone(route: Route) -> bool:
    """Originated here (empty AS path) or learned from a customer."""
    return not route.as_path or _CUSTOMER_COMMUNITY in route.communities


def exports_to(
    route: Route, peer_asn: int, relationships: Mapping[int, Relationship] | None
) -> bool:
    """Whether ``route`` may be exported over eBGP to ``peer_asn``."""
    if NO_EXPORT in route.communities:
        return False
    if relationships is None:
        return True
    relationship = relationships.get(peer_asn)
    if relationship is None:
        return False
    return relationship is Relationship.CUSTOMER or _to_anyone(route)


def exports_to_ebgp(route: Route, relationships: Mapping[int, Relationship] | None) -> bool:
    """Whether :func:`exports_to` may let ``route`` through to any eBGP peer.

    ``False`` is a promise that it refuses every one, and lets the speaker
    skip its eBGP sessions for this best route.  ``no-export`` goes nowhere;
    with a customer, everything else goes to it; without one, only what
    goes to anyone.  Without a table the answer is ``True``.
    """
    if relationships is None:
        return True
    if NO_EXPORT in route.communities:
        return False
    return _to_anyone(route) or Relationship.CUSTOMER in relationships.values()


def strip_ibgp_only_attributes(route: Route) -> Route:
    """Reset attributes that must not cross an AS boundary.

    LOCAL_PREF is iBGP-scoped; ORIGINATOR_ID / CLUSTER_LIST are reflection
    artefacts.  Called by the router when exporting over eBGP; a route
    that carries none of them (a locally originated one) is returned as is.
    """
    if (
        route.local_pref == DEFAULT_LOCAL_PREF
        and route.originator_id is None
        and not route.cluster_list
    ):
        return route
    return route._replace(local_pref=DEFAULT_LOCAL_PREF, originator_id=None, cluster_list=())
