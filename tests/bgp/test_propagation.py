"""Unit tests for AS-level valley-free route propagation."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings

from repro.bgp.propagation import (
    AsLevelRoute,
    AsLevelRouting,
    RouteKind,
    compute_routes_to_origin,
)
from repro.experiments.common import _MAX_PEERS, _TOPOLOGY_CONFIGS, WorldScale
from repro.net.relationships import ASGraph, Relationship
from repro.net.topology import generate_topology
from repro.vns.builder import VnsConfig, build_vns
from repro.vns.network import VNS_ASN
from tests.property.test_props_routing import hierarchies


@pytest.fixture
def diamond() -> ASGraph:
    """Two Tier-1s (1, 2) peering; 3 buys from 1; 4 buys from 2; 5 buys
    from both 3 and 4; 3 and 4 peer."""
    g = ASGraph()
    g.add_peering(1, 2)
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 4)
    g.add_provider_customer(3, 5)
    g.add_provider_customer(4, 5)
    g.add_peering(3, 4)
    return g


class TestComputation:
    def test_origin_route(self, diamond):
        routes = compute_routes_to_origin(diamond, 5)
        assert routes[5].kind is RouteKind.ORIGIN
        assert routes[5].path == ()

    def test_customer_routes_climb(self, diamond):
        routes = compute_routes_to_origin(diamond, 5)
        assert routes[3].kind is RouteKind.CUSTOMER
        assert routes[3].path == (5,)
        assert routes[1].kind is RouteKind.CUSTOMER
        assert routes[1].path == (3, 5)

    def test_peer_route_single_hop(self, diamond):
        routes = compute_routes_to_origin(diamond, 3)
        # 4 peers with 3, so it learns (3,) as a peer route rather than a
        # longer provider route.
        assert routes[4].kind is RouteKind.PEER
        assert routes[4].path == (3,)

    def test_provider_routes_descend(self, diamond):
        routes = compute_routes_to_origin(diamond, 3)
        # 5 is 3's customer so it has a... provider route via 3 or 4;
        # customer preference doesn't apply (3 is 5's provider).
        assert routes[5].kind is RouteKind.PROVIDER
        assert routes[5].path[0] in (3, 4)

    def test_everyone_reaches_everyone(self, diamond):
        for origin in diamond.asns():
            routes = compute_routes_to_origin(diamond, origin)
            assert set(routes) == set(diamond.asns())

    def test_customer_preferred_over_peer(self):
        g = ASGraph()
        g.add_provider_customer(1, 3)  # 3 is 1's customer
        g.add_peering(1, 2)
        g.add_provider_customer(2, 3)
        routes = compute_routes_to_origin(g, 3)
        assert routes[1].kind is RouteKind.CUSTOMER
        assert routes[2].kind is RouteKind.CUSTOMER

    def test_valley_free_no_peer_then_up(self):
        # 1-2 peer; 2 sells to 4; origin hangs off 1.  4 must reach the
        # origin via its provider 2 (which peers with 1): path 2,1,origin.
        g = ASGraph()
        g.add_peering(1, 2)
        g.add_provider_customer(1, 9)
        g.add_provider_customer(2, 4)
        routes = compute_routes_to_origin(g, 9)
        assert routes[4].path == (2, 1, 9)
        assert routes[4].kind is RouteKind.PROVIDER

    def test_unknown_origin_raises(self, diamond):
        with pytest.raises(KeyError):
            compute_routes_to_origin(diamond, 999)


class TestAsLevelRouting:
    def test_path_includes_both_ends(self, diamond):
        routing = AsLevelRouting(diamond)
        assert routing.path(1, 5) == (1, 3, 5)
        assert routing.path(5, 5) == (5,)

    def test_caching_returns_same_table(self, diamond):
        routing = AsLevelRouting(diamond)
        assert routing.table_for_origin(5) is routing.table_for_origin(5)

    def test_route_none_for_unknown_as(self, diamond):
        routing = AsLevelRouting(diamond)
        assert routing.route(999, 5) is None


class TestExportToNeighbor:
    def test_provider_exports_everything(self, diamond):
        routing = AsLevelRouting(diamond)
        # 1 sees some route to 4 (peer or provider kind); as OUR provider
        # it would export it to us regardless of kind.
        route = routing.exported_to_neighbor(1, Relationship.PROVIDER, 4)
        assert route is not None

    def test_peer_exports_customer_routes_only(self, diamond):
        routing = AsLevelRouting(diamond)
        # 3's route to 5 is a customer route -> exported to a peer.
        assert routing.exported_to_neighbor(3, Relationship.PEER, 5) is not None
        # 3's route to 4 is a peer route -> NOT exported to a peer.
        assert routing.exported_to_neighbor(3, Relationship.PEER, 4) is None

    def test_peer_exports_own_prefixes(self, diamond):
        routing = AsLevelRouting(diamond)
        own = routing.exported_to_neighbor(3, Relationship.PEER, 3)
        assert own is not None
        assert own.kind is RouteKind.ORIGIN


# --------------------------------------------------------------------- #
# oracle: the route-object-first computation, kept test-side
# --------------------------------------------------------------------- #


def _reference_tiebreak(route: AsLevelRoute) -> int:
    if not route.path:
        return 0
    return ((route.path[0] * 2654435761) ^ (route.path[-1] * 2246822519)) & 0xFFFFFFFF


def _reference_better(a: AsLevelRoute, b: AsLevelRoute) -> bool:
    key_a = (int(a.kind), len(a.path), _reference_tiebreak(a), a.path[:1])
    key_b = (int(b.kind), len(b.path), _reference_tiebreak(b), b.path[:1])
    return key_a < key_b


def reference_routes_to_origin(graph: ASGraph, origin: int) -> dict[int, AsLevelRoute]:
    """The computation ``compute_routes_to_origin`` replaced: an
    ``AsLevelRoute`` per candidate, compared by full Gao-Rexford key."""
    routes = {origin: AsLevelRoute(kind=RouteKind.ORIGIN, path=())}
    heap = [(0, (), origin)]
    while heap:
        dist, path, asn = heapq.heappop(heap)
        current = routes.get(asn)
        if current is None or current.path != path:
            continue
        for provider in graph.providers_of(asn):
            candidate = AsLevelRoute(kind=RouteKind.CUSTOMER, path=(asn,) + path)
            existing = routes.get(provider)
            if existing is None or _reference_better(candidate, existing):
                routes[provider] = candidate
                heapq.heappush(heap, (dist + 1, candidate.path, provider))
    customer_routed = [
        (asn, route)
        for asn, route in routes.items()
        if route.kind in (RouteKind.ORIGIN, RouteKind.CUSTOMER)
    ]
    peer_candidates = {}
    for asn, route in customer_routed:
        for peer in graph.peers_of(asn):
            if peer in routes:
                continue
            candidate = AsLevelRoute(kind=RouteKind.PEER, path=(asn,) + route.path)
            existing = peer_candidates.get(peer)
            if existing is None or _reference_better(candidate, existing):
                peer_candidates[peer] = candidate
    routes.update(peer_candidates)
    heap = [(len(route.path), route.path, asn) for asn, route in routes.items()]
    heapq.heapify(heap)
    while heap:
        dist, path, asn = heapq.heappop(heap)
        route = routes.get(asn)
        if route is None or len(route.path) != dist or route.path != path:
            continue
        for customer in graph.customers_of(asn):
            candidate = AsLevelRoute(kind=RouteKind.PROVIDER, path=(asn,) + path)
            existing = routes.get(customer)
            if existing is None or (
                existing.kind is RouteKind.PROVIDER
                and _reference_better(candidate, existing)
            ):
                routes[customer] = candidate
                heapq.heappush(heap, (len(candidate.path), candidate.path, customer))
    return routes


def assert_same_tables(graph: ASGraph, origins) -> None:
    for origin in origins:
        expected = reference_routes_to_origin(graph, origin)
        actual = compute_routes_to_origin(graph, origin)
        assert actual == expected, f"origin AS{origin}"
        assert list(actual) == list(expected), f"origin AS{origin}: table order"


def _seed7_world_graph(scale: str) -> ASGraph:
    """The seed-7 world's AS graph with VNS attached (``build_vns`` adds
    it under its upstreams; convergence does not touch the graph)."""
    world_scale = WorldScale(scale)
    rng = np.random.default_rng(7)
    topology = generate_topology(_TOPOLOGY_CONFIGS[world_scale], rng)
    build_vns(
        topology,
        routing=AsLevelRouting(topology.graph),
        geoip=topology.build_geoip(),
        config=VnsConfig(max_peers=_MAX_PEERS[world_scale]),
        rng=rng,
        converge=False,
    )
    return topology.graph


class TestReferenceOracle:
    """Every table equals the reference's, in the same ``list(table)``
    order (the order callers iterate a table in)."""

    @given(hierarchies())
    @settings(max_examples=80, deadline=None)
    def test_random_hierarchies(self, graph):
        assert_same_tables(graph, graph.asns())

    def test_diamond(self, diamond):
        assert_same_tables(diamond, diamond.asns())

    @pytest.mark.parametrize("scale", ["small", pytest.param("medium", marks=pytest.mark.slow)])
    def test_every_origin_of_the_seed7_world(self, scale):
        graph = _seed7_world_graph(scale)
        assert VNS_ASN in graph
        assert_same_tables(graph, graph.asns())

    def test_vns_edges_reach_both_endpoints(self):
        """``build_vns`` adds VNS's edges after the topology is built:
        each upstream lists VNS as its newest customer, each peer as its
        newest peer."""
        graph = _seed7_world_graph("small")
        upstreams = graph.providers_of(VNS_ASN)
        peers = graph.peers_of(VNS_ASN)
        assert upstreams and peers
        assert graph.customers_of(VNS_ASN) == []
        for upstream in upstreams:
            assert graph.customers_of(upstream)[-1] == VNS_ASN
        for peer in peers:
            assert graph.peers_of(peer)[-1] == VNS_ASN
