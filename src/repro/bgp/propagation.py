"""AS-level route propagation over the synthetic Internet.

Router-level BGP is simulated only inside VNS (where the paper's
contribution lives).  For the rest of the Internet an AS-level model with
Gao-Rexford (valley-free) semantics suffices: each AS prefers customer
routes over peer routes over provider routes, then shortest AS path, then
lowest neighbour ASN — the standard abstraction for policy routing studies.

The result, per origin AS, is every AS's best AS-level route.  From these
we derive (a) the routes VNS's upstreams and peers advertise to it, and
(b) the forwarding paths the data plane walks when traffic leaves VNS or
travels natively over the Internet.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.net.relationships import ASGraph, Relationship


class RouteKind(enum.IntEnum):
    """How a route was learned, in preference order (lower is better)."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True, slots=True)
class AsLevelRoute:
    """An AS's best route toward an origin AS.

    ``path`` lists the ASes the route traverses, starting at the first-hop
    neighbour and ending at the origin; it is empty at the origin itself.
    """

    kind: RouteKind
    path: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.path)


def _tiebreak(first_hop: int, origin: int) -> int:
    """A deterministic pseudo-random tie-break among equal-class routes.

    Real ties (same relationship class, same path length) are broken by
    router-level details that look arbitrary at AS granularity; a hash of
    (first hop, origin) spreads them across neighbours instead of always
    favouring the lowest ASN, which would concentrate traffic
    unrealistically.  For a fixed origin it depends on the first hop
    alone.
    """
    return ((first_hop * 2654435761) ^ (origin * 2246822519)) & 0xFFFFFFFF


def compute_routes_to_origin(graph: ASGraph, origin: int) -> dict[int, AsLevelRoute]:
    """Best valley-free route from every AS to ``origin``.

    Three phases, mirroring export rules:

    1. *customer routes* climb provider edges from the origin;
    2. *peer routes* take exactly one peering edge off a customer route;
    3. *provider routes* descend customer edges from any routed AS.

    Within a phase every candidate has the same kind, so candidates
    compare by the rest of the Gao-Rexford key: (path length, tie-break,
    first hop).  Every candidate an AS offers its neighbours shares that
    key, so it is computed once per expanded AS, the path tuple is built
    only for a winner, and each AS gets one :class:`AsLevelRoute` at the
    end.  Routes are listed origin first, then in the order the phases
    first reached each AS.

    Raises
    ------
    KeyError
        If ``origin`` is not in the graph.
    """
    if origin not in graph:
        raise KeyError(f"AS{origin} not in graph")

    # Phase 1: customer routes propagate upward (customer -> provider).
    # Dijkstra by (path length, first hop) guarantees determinism.  The
    # origin's key beats every candidate, so it is never replaced.
    up_paths: dict[int, tuple[int, ...]] = {origin: ()}
    up_keys: dict[int, tuple[int, int, int]] = {origin: (0, 0, 0)}
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), origin)]
    while heap:
        dist, path, asn = heapq.heappop(heap)
        if up_paths[asn] != path:
            continue  # stale heap entry
        key = (dist + 1, _tiebreak(asn, origin), asn)
        grown: tuple[int, ...] | None = None
        for provider in graph.providers_of(asn):
            existing = up_keys.get(provider)
            if existing is None or key < existing:
                grown = grown or (asn,) + path
                up_keys[provider] = key
                up_paths[provider] = grown
                heapq.heappush(heap, (dist + 1, grown, provider))

    # Phase 2: peer routes (one peering hop off a customer/origin route).
    peer_paths: dict[int, tuple[int, ...]] = {}
    peer_keys: dict[int, tuple[int, int, int]] = {}
    for asn, path in up_paths.items():
        key = (len(path) + 1, _tiebreak(asn, origin), asn)
        grown = None
        for peer in graph.peers_of(asn):
            if peer in up_paths:
                continue  # already has a customer route (preferred)
            existing = peer_keys.get(peer)
            if existing is None or key < existing:
                grown = grown or (asn,) + path
                peer_keys[peer] = key
                peer_paths[peer] = grown

    # Phase 3: provider routes descend customer edges from any routed AS;
    # they never replace a customer or peer route.
    routed = up_paths | peer_paths
    down_paths: dict[int, tuple[int, ...]] = {}
    down_keys: dict[int, tuple[int, int, int]] = {}
    # Only an AS with customers can expand, so only those enter the heap.
    customers = {asn: graph.customers_of(asn) for asn in graph.asns()}
    heap = [(len(path), path, asn) for asn, path in routed.items() if customers[asn]]
    heapq.heapify(heap)
    while heap:
        dist, path, asn = heapq.heappop(heap)
        if down_paths.get(asn, path) != path:
            continue  # stale heap entry
        key = (dist + 1, _tiebreak(asn, origin), asn)
        grown = None
        for customer in customers[asn]:
            if customer in routed:
                continue
            existing = down_keys.get(customer)
            if existing is None or key < existing:
                grown = grown or (asn,) + path
                down_keys[customer] = key
                down_paths[customer] = grown
                if customers[customer]:
                    heapq.heappush(heap, (dist + 1, grown, customer))

    routes = {origin: AsLevelRoute(kind=RouteKind.ORIGIN, path=())}
    for paths, kind in (
        (up_paths, RouteKind.CUSTOMER),
        (peer_paths, RouteKind.PEER),
        (down_paths, RouteKind.PROVIDER),
    ):
        for asn, path in paths.items():
            if asn != origin:
                routes[asn] = AsLevelRoute(kind=kind, path=path)
    return routes


class AsLevelRouting:
    """Caches per-origin routing tables for a topology's AS graph."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        #: origin -> :meth:`table_for_origin`, this process's memo (never
        #: pickled: a receiver recomputes the same tables from the graph).
        self._tables: dict[int, dict[int, AsLevelRoute]] = {}

    def __getstate__(self) -> dict:
        # The graph, less the memo: a shipped world pickles to the same
        # bytes however many origins this process resolved.
        return {"_graph": self._graph}

    def __setstate__(self, state: dict) -> None:
        self._graph = state["_graph"]
        self._tables = {}

    @property
    def graph(self) -> ASGraph:
        return self._graph

    def table_for_origin(self, origin: int) -> dict[int, AsLevelRoute]:
        """Routes of every AS toward ``origin`` (computed once, cached)."""
        table = self._tables.get(origin)
        if table is None:
            table = compute_routes_to_origin(self._graph, origin)
            self._tables[origin] = table
        return table

    def route(self, from_asn: int, origin: int) -> AsLevelRoute | None:
        """``from_asn``'s best route toward ``origin`` (None if unreachable)."""
        return self.table_for_origin(origin).get(from_asn)

    def path(self, from_asn: int, origin: int) -> tuple[int, ...] | None:
        """The AS path from ``from_asn`` to ``origin`` including both ends."""
        route = self.route(from_asn, origin)
        if route is None:
            return None
        return (from_asn,) + route.path if route.path else (from_asn,)

    def exported_to_neighbor(
        self, neighbor_asn: int, relationship_of_neighbor: Relationship, origin: int
    ) -> AsLevelRoute | None:
        """The route ``neighbor_asn`` would advertise over a new session.

        ``relationship_of_neighbor`` is how *the receiving AS* sees the
        neighbour: a PROVIDER (upstream) exports everything it has; a PEER
        exports only customer routes and its own prefixes (Gao-Rexford).
        """
        route = self.route(neighbor_asn, origin)
        if route is None:
            return None
        if relationship_of_neighbor is Relationship.PROVIDER:
            return route
        if relationship_of_neighbor is Relationship.PEER:
            if route.kind in (RouteKind.ORIGIN, RouteKind.CUSTOMER):
                return route
            return None
        # The receiving AS sees the neighbour as its CUSTOMER: a customer
        # exports only its own and its customers' routes to a provider.
        if route.kind in (RouteKind.ORIGIN, RouteKind.CUSTOMER):
            return route
        return None
