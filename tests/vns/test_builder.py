"""Tests for the VNS deployment builder on a real (tiny) topology."""

import numpy as np
import pytest

from repro.bgp.propagation import AsLevelRouting
from repro.experiments.common import build_world
from repro.geo.coords import great_circle_km
from repro.net.asn import ASType
from repro.net.relationships import Relationship
from repro.vns.builder import VnsConfig, build_vns
from repro.vns.network import VNS_ASN
from repro.vns.pop import POPS


@pytest.fixture(scope="module")
def deployment(tiny_topology_module):
    topology = tiny_topology_module
    routing = AsLevelRouting(topology.graph)
    geoip = topology.build_geoip()
    return build_vns(
        topology,
        routing,
        geoip,
        VnsConfig(max_peers=6),
        np.random.default_rng(11),
    ), topology


@pytest.fixture(scope="module")
def tiny_topology_module():
    from repro.net.topology import TopologyConfig, generate_topology

    return generate_topology(
        TopologyConfig(n_ltp=3, n_stp=8, n_cahp=10, n_ec=12),
        np.random.default_rng(7),
    )


class TestDeployment:
    def test_upstream_mix(self, deployment):
        dep, topology = deployment
        types = {topology.autonomous_system(a).as_type for a in dep.upstreams}
        assert ASType.LTP in types
        # Regional wholesale providers are part of the upstream set.
        assert ASType.STP in types

    def test_relationships(self, deployment):
        dep, _ = deployment
        for asn in dep.upstreams:
            assert dep.network.relationships[asn] is Relationship.PROVIDER
        for asn in dep.peers:
            assert dep.network.relationships[asn] is Relationship.PEER

    def test_vns_registered_in_graph(self, deployment):
        dep, topology = deployment
        assert VNS_ASN in topology.graph
        assert set(topology.graph.providers_of(VNS_ASN)) == set(dep.upstreams)

    def test_every_pop_has_min_upstreams(self, deployment):
        dep, _ = deployment
        for pop in POPS:
            at_pop = [a for a in dep.upstreams if pop.code in dep.session_pops(a)]
            assert len(at_pop) >= 2, pop.code

    def test_main_upstream_everywhere(self, deployment):
        dep, _ = deployment
        for pop in POPS:
            main = dep.main_upstream_at[pop.code]
            assert pop.code in dep.session_pops(main)

    def test_london_main_upstream_us_based(self, deployment):
        dep, topology = deployment
        main = dep.main_upstream_at["LON"]
        system = topology.autonomous_system(main)
        # The designated LON upstream is the Tier-1 with the weakest EU
        # footprint among the global upstreams.
        assert system.as_type is ASType.LTP

    def test_peers_exclude_tier1_and_stubs(self, deployment):
        dep, topology = deployment
        for asn in dep.peers:
            as_type = topology.autonomous_system(asn).as_type
            assert as_type in (ASType.STP, ASType.CAHP)

    def test_converged_with_routes(self, deployment):
        dep, topology = deployment
        assert dep.network.engine.converged
        assert dep.network.total_loc_rib_size() > 0
        # Every border router knows (nearly) the full table.
        router = dep.network.border_routers["AMS-r1"]
        coverage = len(router.loc_rib) / len(topology.prefixes())
        assert coverage > 0.95

    def test_anycast_announced_externally(self, deployment):
        dep, _ = deployment
        announced = {
            m.route.prefix
            for m in dep.network.engine.external_outbox
            if hasattr(m, "route")
        }
        assert dep.anycast_prefix in announced

    def test_transit_routes_never_exported(self, deployment):
        # VNS must not provide transit: only its own prefixes leave.
        dep, _ = deployment
        for message in dep.network.engine.external_outbox:
            route = getattr(message, "route", None)
            if route is None:
                continue
            assert route.as_path[-1] == VNS_ASN

    def test_neighbor_asns_ordering(self, deployment):
        dep, _ = deployment
        combined = dep.neighbor_asns
        assert combined[: len(dep.upstreams)] == dep.upstreams


class TestNearestPresenceAfterBuild:
    """The builder adds presence points (the PNI circuits it delivers) to
    ASes whose nearest presence it has already asked about: every answer
    afterwards, memoised or not, must see the delivered circuits."""

    @staticmethod
    def first_argmin(system, target):
        presence = system.presence
        return presence[
            min(
                range(len(presence)),
                key=lambda i: great_circle_km(presence[i].location, target),
            )
        ]

    @pytest.mark.parametrize("seed", [7, 11])
    def test_every_answer_is_the_nearest_point(self, seed):
        world = build_world("small", seed=seed)
        checked = 0
        for system in world.topology.ases.values():
            targets = list(system._nearest or ()) + [pop.location for pop in POPS]
            for target in targets:
                assert system.nearest_presence(target) is self.first_argmin(
                    system, target
                ), (system.asn, target)
                checked += 1
        assert checked > len(world.topology.ases) * len(POPS)
