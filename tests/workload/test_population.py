"""Tests for the sampled user population."""

import pytest

from repro.geo.cities import region_of_point
from repro.geo.regions import WorldRegion
from repro.workload.population import DEFAULT_REGION_WEIGHTS, UserPopulation


class TestSampling:
    def test_deterministic_under_seed(self, small_world):
        a = UserPopulation.sample(small_world.topology, 80, seed=11)
        b = UserPopulation.sample(small_world.topology, 80, seed=11)
        assert a.users == b.users

    def test_different_seeds_differ(self, small_world):
        a = UserPopulation.sample(small_world.topology, 80, seed=11)
        b = UserPopulation.sample(small_world.topology, 80, seed=12)
        assert a.users != b.users

    def test_user_fields_consistent(self, small_world):
        topology = small_world.topology
        population = UserPopulation.sample(topology, 40, seed=5)
        for user in population:
            assert topology.origin_of[user.prefix] == user.asn
            assert topology.prefix_location[user.prefix] == user.location

    def test_default_weights_cover_all_regions(self):
        assert set(DEFAULT_REGION_WEIGHTS) == set(WorldRegion)
        assert sum(DEFAULT_REGION_WEIGHTS.values()) == pytest.approx(1.0)

    def test_large_sample_follows_default_weights(self, small_world):
        topology = small_world.topology
        population = UserPopulation.sample(topology, 4000, seed=3)
        covered = {region_of_point(location) for location in topology.prefix_location.values()}
        total = sum(DEFAULT_REGION_WEIGHTS[region] for region in covered)
        counts = population.by_region()
        assert set(counts) == covered
        for region in covered:
            expected = DEFAULT_REGION_WEIGHTS[region] / total
            assert counts[region] / 4000 == pytest.approx(expected, abs=0.03)

    def test_accessors(self, small_world):
        population = UserPopulation.sample(small_world.topology, 60, seed=9)
        counts = population.by_region()
        assert sum(counts.values()) == 60
        for region, count in counts.items():
            assert len(population.users_in_region(region)) == count
        assert population.prefixes() <= set(small_world.topology.prefixes())

    def test_invalid_inputs(self, small_world):
        with pytest.raises(ValueError):
            UserPopulation.sample(small_world.topology, 0, seed=1)
