"""Unit tests for the synthetic Internet generator."""

import numpy as np

from repro.geo.regions import WorldRegion
from repro.net.asn import ASType
from repro.net.topology import PrefixAllocator, TopologyConfig, generate_topology


class TestPrefixAllocator:
    def test_sequential_disjoint(self):
        alloc = PrefixAllocator()
        a = alloc.allocate()
        b = alloc.allocate()
        assert a != b
        assert not a.contains_prefix(b)
        assert not b.contains_prefix(a)

    def test_length_default_20(self):
        assert PrefixAllocator().allocate().length == 20


class TestGeneration:
    def test_counts(self, tiny_topology):
        config = TopologyConfig(n_ltp=3, n_stp=8, n_cahp=10, n_ec=12)
        assert len(tiny_topology.ases) == (
            config.n_ltp + config.n_stp + config.n_cahp + config.n_ec
        )
        assert len(tiny_topology.ases_of_type(ASType.LTP)) == 3
        assert len(tiny_topology.ases_of_type(ASType.EC)) == 12

    def test_clique_is_fully_meshed(self, tiny_topology):
        clique = tiny_topology.clique
        for i, a in enumerate(clique):
            for b in clique[i + 1 :]:
                assert b in tiny_topology.graph.peers_of(a)

    def test_every_as_reaches_clique(self, tiny_topology):
        for asn in tiny_topology.graph.asns():
            assert tiny_topology.graph.has_provider_path_to_clique(
                asn, tiny_topology.clique
            )

    def test_prefixes_have_origin_and_location(self, tiny_topology):
        for prefix in tiny_topology.prefixes():
            assert prefix in tiny_topology.prefix_location
            assert prefix in tiny_topology.prefix_country
            origin = tiny_topology.origin_as(prefix)
            assert prefix in origin.prefixes

    def test_prefixes_disjoint(self, tiny_topology):
        prefixes = sorted(tiny_topology.prefixes())
        for a, b in zip(prefixes, prefixes[1:]):
            assert not a.contains_prefix(b)

    def test_prefix_near_presence(self, tiny_topology):
        # Prefix locations are jittered around presence cities; the bulk
        # should be within a few hundred km of *some* presence point.
        close = 0
        total = 0
        for prefix in tiny_topology.prefixes():
            origin = tiny_topology.origin_as(prefix)
            location = tiny_topology.prefix_location[prefix]
            nearest = origin.nearest_presence(location)
            total += 1
            if nearest.location.distance_km(location) < 500:
                close += 1
        assert close / total > 0.9

    def test_region_coverage_guaranteed(self, tiny_topology):
        for region in (
            WorldRegion.ASIA_PACIFIC,
            WorldRegion.EUROPE,
            WorldRegion.NORTH_CENTRAL_AMERICA,
            WorldRegion.OCEANIA,
        ):
            types = {
                system.as_type
                for system in tiny_topology.ases.values()
                if system.home.city.region is region
            }
            assert ASType.STP in types, f"no STP in {region}"
            assert ASType.EC in types, f"no EC in {region}"

    def test_edge_providers_regional_or_tier1(self, tiny_topology):
        for system in tiny_topology.ases.values():
            if system.as_type is not ASType.CAHP:
                continue
            for provider in tiny_topology.graph.providers_of(system.asn):
                provider_as = tiny_topology.autonomous_system(provider)
                assert (
                    provider_as.as_type is ASType.LTP
                    or provider_as.home.city.region is system.home.city.region
                    # fallback when the home region had no STP at all
                    or not any(
                        s.home.city.region is system.home.city.region
                        for s in tiny_topology.ases_of_type(ASType.STP)
                    )
                )

    def test_determinism(self):
        config = TopologyConfig(n_ltp=2, n_stp=4, n_cahp=4, n_ec=4)
        t1 = generate_topology(config, np.random.default_rng(99))
        t2 = generate_topology(config, np.random.default_rng(99))
        assert t1.prefixes() == t2.prefixes()
        assert {a: s.name for a, s in t1.ases.items()} == {
            a: s.name for a, s in t2.ases.items()
        }

    def test_geoip_built_from_ground_truth(self, tiny_topology):
        db = tiny_topology.build_geoip()
        assert len(db) == len(tiny_topology.prefixes())
        assert db.mean_error_km() == 0.0

    def test_ltps_present_at_major_hubs(self, tiny_topology):
        # Tier-1s should cover most of the big exchange cities.
        for system in tiny_topology.ases_of_type(ASType.LTP):
            cities = {point.city.name for point in system.presence}
            hubs = {"London", "Amsterdam", "Frankfurt", "New York", "Tokyo"}
            assert len(cities & hubs) >= 3
