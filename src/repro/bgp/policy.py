"""Import and export policies.

Two policy idioms from operational practice are reproduced:

* On import over eBGP, routes get a LOCAL_PREF by business relationship
  (customer > peer > provider) and a community recording that relationship.
* On export over eBGP, Gao-Rexford: everything to customers; only
  customer-learned or locally originated routes to peers and providers.

The relationship community is what lets a border router, exporting a route
that arrived over iBGP, still know where the route originally entered the
AS — exactly how real networks implement valley-free export.
"""

from __future__ import annotations

import abc

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, NO_EXPORT, Route
from repro.bgp.session import Session
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


class ImportPolicy(abc.ABC):
    """Decides what a route received over a session is stored with."""

    @abc.abstractmethod
    def apply(
        self, route: Route, session: Session, local_pref: int
    ) -> tuple[int, frozenset[str]] | None:
        """``(local_pref, communities)`` to store ``route`` with, or ``None``
        to reject it.

        ``local_pref`` is what the session delivers: the route's own over
        iBGP, the default over eBGP (LOCAL_PREF does not cross an AS
        boundary).  The router builds the stored route from the answer in
        one copy, so a policy constructs no route.
        """


class ExportPolicy(abc.ABC):
    """Decides whether (and how) a route is exported over a session."""

    @abc.abstractmethod
    def apply(self, route: Route, session: Session) -> Route | None:
        """The route to send, or ``None`` to suppress the advertisement."""

    def exports_to_ebgp(self, route: Route) -> bool:
        """Whether :meth:`apply` may let ``route`` through to any eBGP session.

        ``False`` is a promise that :meth:`apply` returns ``None`` for every
        eBGP session, and lets the router skip them for this best route; a
        policy that cannot tell answers ``True``.
        """
        return True


class AcceptAll(ImportPolicy):
    """Accept everything unchanged."""

    def apply(
        self, route: Route, session: Session, local_pref: int
    ) -> tuple[int, frozenset[str]] | None:
        return local_pref, route.communities


class ExportAll(ExportPolicy):
    """Export everything unchanged (still subject to router mechanics)."""

    def apply(self, route: Route, session: Session) -> Route | None:
        return route


class RelationshipImportPolicy(ImportPolicy):
    """Set LOCAL_PREF and a relationship community on eBGP import.

    Parameters
    ----------
    relationships:
        Relationship of each neighbouring AS, seen from the local AS.  Its
        LOCAL_PREF is :data:`RELATIONSHIP_LOCAL_PREF`'s.
    """

    def __init__(self, relationships: dict[int, Relationship]) -> None:
        self._relationships = dict(relationships)
        #: One set object per distinct tagged value.  A set is an object the
        #: cyclic collector tracks, and a converged border holds a route
        #: per (eBGP peer, prefix): routes with equal tags share one.
        self._tagged: dict[frozenset[str], frozenset[str]] = {}

    def apply(
        self, route: Route, session: Session, local_pref: int
    ) -> tuple[int, frozenset[str]] | None:
        if not session.is_ebgp:
            return local_pref, route.communities
        relationship = self._relationships.get(session.peer_asn)
        if relationship is None:
            return None  # no business relationship, reject
        tagged = route.communities.union((RELATIONSHIP_COMMUNITY[relationship],))
        return RELATIONSHIP_LOCAL_PREF[relationship], self._tagged.setdefault(tagged, tagged)


class RelationshipExportPolicy(ExportPolicy):
    """Gao-Rexford export over eBGP, driven by relationship communities.

    Routes originated locally (empty AS path before prepending) are always
    exportable.  Routes tagged ``rel:customer`` are exportable to anyone;
    routes tagged ``rel:peer`` or ``rel:provider`` only to customers.
    ``no-export`` always wins.
    """

    def __init__(self, relationships: dict[int, Relationship]) -> None:
        self._relationships = dict(relationships)
        self._has_customers = Relationship.CUSTOMER in self._relationships.values()

    def exports_to_ebgp(self, route: Route) -> bool:
        """``no-export`` goes nowhere; with a customer, everything else goes
        to it; without one, only what :meth:`apply` lets through to anyone."""
        if NO_EXPORT in route.communities:
            return False
        return self._has_customers or self._to_anyone(route)

    @staticmethod
    def _to_anyone(route: Route) -> bool:
        """Originated here (empty AS path) or learned from a customer."""
        return not route.as_path or _CUSTOMER_COMMUNITY in route.communities

    def apply(self, route: Route, session: Session) -> Route | None:
        if not session.is_ebgp:
            return route
        if NO_EXPORT in route.communities:
            return None
        peer_rel = self._relationships.get(session.peer_asn)
        if peer_rel is None:
            return None
        if peer_rel is Relationship.CUSTOMER or self._to_anyone(route):
            return route
        return None


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
