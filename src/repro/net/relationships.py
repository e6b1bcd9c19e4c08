"""AS business relationships: customer-provider and settlement-free peering.

The Gao-Rexford model underpins both the synthetic Internet's route
propagation (valley-free paths) and the "Transit vs Peer routes" analysis of
Fig. 5: a route's *type* at VNS is determined by the relationship with the
neighbour it was learned from.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable


class Relationship(enum.Enum):
    """Relationship of a neighbour, seen from the local AS."""

    CUSTOMER = "customer"  #: the neighbour pays us
    PROVIDER = "provider"  #: we pay the neighbour (an "upstream")
    PEER = "peer"  #: settlement-free

    def inverse(self) -> "Relationship":
        """The same link seen from the other side."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER

    def __str__(self) -> str:
        return self.value


class ASGraph:
    """The AS-level relationship graph.

    Nodes are AS numbers; edges are typed.  The graph enforces consistency:
    a pair of ASes has at most one relationship, and querying from either
    side returns complementary types.
    """

    def __init__(self) -> None:
        self._neighbors: dict[int, dict[int, Relationship]] = {}
        # Each AS's neighbours by how it sees them, in edge-insertion
        # order; ``_add_edge`` keeps them beside ``_neighbors``.
        self._customers: dict[int, list[int]] = {}
        self._providers: dict[int, list[int]] = {}
        self._peers: dict[int, list[int]] = {}

    def add_as(self, asn: int) -> None:
        """Register an AS with no links yet (idempotent)."""
        if asn not in self._neighbors:
            self._neighbors[asn] = {}
            self._customers[asn] = []
            self._providers[asn] = []
            self._peers[asn] = []

    def __contains__(self, asn: int) -> bool:
        return asn in self._neighbors

    def __len__(self) -> int:
        return len(self._neighbors)

    def asns(self) -> list[int]:
        """All registered AS numbers."""
        return list(self._neighbors)

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Add a transit edge: ``customer`` buys transit from ``provider``."""
        self._add_edge(provider, customer, Relationship.CUSTOMER)

    def add_peering(self, a: int, b: int) -> None:
        """Add a settlement-free peering edge between ``a`` and ``b``."""
        self._add_edge(a, b, Relationship.PEER)

    def _add_edge(self, a: int, b: int, rel_of_b_to_a: Relationship) -> None:
        if a == b:
            raise ValueError(f"AS{a} cannot have a relationship with itself")
        self.add_as(a)
        self.add_as(b)
        if b in self._neighbors[a]:
            raise ValueError(f"AS{a} and AS{b} already have a relationship")
        self._neighbors[a][b] = rel_of_b_to_a
        self._neighbors[b][a] = rel_of_b_to_a.inverse()
        self._listed(rel_of_b_to_a)[a].append(b)
        self._listed(rel_of_b_to_a.inverse())[b].append(a)

    def _listed(self, rel: Relationship) -> dict[int, list[int]]:
        if rel is Relationship.CUSTOMER:
            return self._customers
        if rel is Relationship.PROVIDER:
            return self._providers
        return self._peers

    def relationship(self, local: int, neighbor: int) -> Relationship:
        """How ``local`` sees ``neighbor``.

        Raises
        ------
        KeyError
            If the two ASes are not directly connected.
        """
        return self._neighbors[local][neighbor]

    def neighbors(self, asn: int) -> dict[int, Relationship]:
        """All neighbours of ``asn`` with their relationship to it."""
        return dict(self._neighbors[asn])

    def customers_of(self, asn: int) -> list[int]:
        """ASes buying transit from ``asn`` (a fresh list, oldest edge first)."""
        return list(self._customers[asn])

    def providers_of(self, asn: int) -> list[int]:
        """ASes that ``asn`` buys transit from (its upstreams; a fresh list,
        oldest edge first)."""
        return list(self._providers[asn])

    def peers_of(self, asn: int) -> list[int]:
        """Settlement-free peers of ``asn`` (a fresh list, oldest edge first)."""
        return list(self._peers[asn])

    def customer_cone(self, asn: int) -> set[int]:
        """All ASes reachable from ``asn`` by walking customer edges.

        Includes ``asn`` itself.  The cone size is the usual proxy for an
        AS's importance in the transit market.
        """
        cone = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for customer in self.customers_of(current):
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return cone

    def has_provider_path_to_clique(self, asn: int, clique: Iterable[int]) -> bool:
        """Whether ``asn`` can reach the Tier-1 clique walking provider edges.

        Used by topology validation: every AS must be able to reach the top
        of the hierarchy or parts of the Internet would be unreachable.
        """
        clique_set = set(clique)
        if asn in clique_set:
            return True
        seen = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for provider in self.providers_of(current):
                if provider in clique_set:
                    return True
                if provider not in seen:
                    seen.add(provider)
                    frontier.append(provider)
        return False
