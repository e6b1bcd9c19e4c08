"""Routing information bases: Adj-RIB-In/Out and Loc-RIB."""

from __future__ import annotations

from collections.abc import Iterator, Set

from repro.bgp.attributes import Route
from repro.net.addressing import Prefix


class AdjRib:
    """Per-peer routes, either received (In) or advertised (Out)."""

    def __init__(self) -> None:
        self._routes: dict[str, dict[Prefix, Route]] = {}

    def update(self, peer: str, route: Route) -> None:
        """Store ``route`` as the current route from/to ``peer``."""
        self._routes.setdefault(peer, {})[route.prefix] = route

    def withdraw(self, peer: str, prefix: Prefix) -> Route | None:
        """Remove and return the route for ``prefix`` from ``peer``."""
        return self._routes.get(peer, {}).pop(prefix, None)

    def route(self, peer: str, prefix: Prefix) -> Route | None:
        """The current route for ``prefix`` from/to ``peer``."""
        return self._routes.get(peer, {}).get(prefix)

    def routes_for(self, prefix: Prefix) -> list[Route]:
        """All per-peer routes for ``prefix``."""
        return [
            routes[prefix] for routes in self._routes.values() if prefix in routes
        ]

    def routes_from(self, peer: str) -> dict[Prefix, Route]:
        """All routes from/to one peer (a copy)."""
        return dict(self._routes.get(peer, {}))

    def prefixes(self) -> set[Prefix]:
        """Every prefix that has at least one route."""
        seen: set[Prefix] = set()
        for routes in self._routes.values():
            seen.update(routes)
        return seen

    def prefixes_via(self, next_hops: Set[str]) -> set[Prefix]:
        """Every prefix with a route whose next hop is one of ``next_hops``."""
        return {
            prefix
            for routes in self._routes.values()
            for prefix, route in routes.items()
            if route.next_hop in next_hops
        }

    def drop_peer(self, peer: str) -> dict[Prefix, Route]:
        """Remove all state for a peer (session teardown); return it."""
        return self._routes.pop(peer, {})

    def __len__(self) -> int:
        return sum(len(routes) for routes in self._routes.values())


class LocRib:
    """The selected best route per prefix."""

    def __init__(self) -> None:
        self._best: dict[Prefix, Route] = {}

    def set_best(self, route: Route) -> None:
        self._best[route.prefix] = route

    def clear(self, prefix: Prefix) -> Route | None:
        return self._best.pop(prefix, None)

    def best(self, prefix: Prefix) -> Route | None:
        return self._best.get(prefix)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best

    def __len__(self) -> int:
        return len(self._best)

    def items(self) -> Iterator[tuple[Prefix, Route]]:
        return iter(self._best.items())

    def prefixes(self) -> list[Prefix]:
        return list(self._best)
