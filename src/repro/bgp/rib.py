"""Routing information bases: Adj-RIB-In and Adj-RIB-Out."""

from __future__ import annotations

from collections.abc import Set

from repro.bgp.attributes import Route
from repro.net.addressing import Prefix

_NO_PEERS: frozenset[str] = frozenset()


class AdjRib:
    """Per-peer routes, either received (In) or advertised (Out).

    Indexed by prefix (prefix -> {peer: route}): the decision process
    asks for one prefix's candidates on every run, and that is one
    lookup.  A prefix whose last route goes is deleted, so every stored
    entry is non-empty.  Per-peer reads are scans over the prefixes.
    """

    def __init__(self) -> None:
        self._routes: dict[Prefix, dict[str, Route]] = {}

    def update(self, peer: str, route: Route) -> None:
        """Store ``route`` as the current route from/to ``peer``."""
        peers = self._routes.get(route.prefix)
        if peers is None:
            self._routes[route.prefix] = {peer: route}
        else:
            peers[peer] = route

    def withdraw(self, peer: str, prefix: Prefix) -> Route | None:
        """Remove and return the route for ``prefix`` from ``peer``."""
        peers = self._routes.get(prefix)
        if peers is None:
            return None
        removed = peers.pop(peer, None)
        if not peers:
            del self._routes[prefix]
        return removed

    def route(self, peer: str, prefix: Prefix) -> Route | None:
        """The current route for ``prefix`` from/to ``peer``."""
        peers = self._routes.get(prefix)
        return None if peers is None else peers.get(peer)

    def routes_for(self, prefix: Prefix) -> list[Route]:
        """All per-peer routes for ``prefix`` (a new list)."""
        peers = self._routes.get(prefix)
        return [] if peers is None else list(peers.values())

    def peers(self, prefix: Prefix) -> Set[str]:
        """The peers with a route for ``prefix`` (a live view, not a copy)."""
        peers = self._routes.get(prefix)
        return _NO_PEERS if peers is None else peers.keys()

    def routes_from(self, peer: str) -> dict[Prefix, Route]:
        """All routes from/to one peer (a copy)."""
        return {
            prefix: peers[peer] for prefix, peers in self._routes.items() if peer in peers
        }

    def prefixes(self) -> set[Prefix]:
        """Every prefix that has at least one route."""
        return set(self._routes)

    def prefixes_via(self, next_hops: Set[str]) -> set[Prefix]:
        """Every prefix with a route whose next hop is one of ``next_hops``."""
        found: set[Prefix] = set()
        for prefix, peers in self._routes.items():
            for route in peers.values():
                if route.next_hop in next_hops:
                    found.add(prefix)
                    break
        return found

    def drop_peer(self, peer: str) -> dict[Prefix, Route]:
        """Remove all state for a peer (session teardown); return it."""
        dropped: dict[Prefix, Route] = {}
        for prefix, peers in list(self._routes.items()):
            route = peers.pop(peer, None)
            if route is not None:
                dropped[prefix] = route
                if not peers:
                    del self._routes[prefix]
        return dropped

    def __len__(self) -> int:
        return sum(len(peers) for peers in self._routes.values())

