"""Tests for the batched campaign engine."""

import numpy as np
import pytest

from repro.dataplane.transmit import simulate_stream
from repro.workload.arrivals import CallArrivalProcess, CallSpec
from repro.workload.engine import CampaignConfig, CampaignEngine, CampaignStats
from repro.workload.population import UserPopulation


@pytest.fixture(scope="module")
def campaign_inputs(small_world):
    population = UserPopulation.sample(small_world.topology, 80, seed=31)
    calls = CallArrivalProcess(
        population, calls_per_user_day=3.0, seed=31
    ).generate(days=1)
    return population, calls


class TestDeterminism:
    def test_same_seed_same_report(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        run_a = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        run_b = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        assert run_a.report.to_json() == run_b.report.to_json()

    def test_different_seed_different_report(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        run_a = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        run_b = CampaignEngine(small_world.service, CampaignConfig(seed=9)).run(calls)
        assert run_a.report.to_json() != run_b.report.to_json()


class TestAccounting:
    def test_stats_add_up(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        run = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        stats = run.stats
        assert stats.calls_total == len(calls)
        assert stats.calls_resolved + stats.calls_failed == stats.calls_total
        assert len(run.results) == stats.calls_resolved
        assert run.report.n_calls == stats.calls_resolved
        assert stats.batches <= stats.calls_resolved
        assert stats.largest_batch >= 1
        assert stats.elapsed_s > 0
        assert stats.calls_per_second > 0

    def test_path_cache_gets_hits(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        run = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        assert run.stats.onward_misses > 0
        assert run.stats.onward_hits > 0
        assert 0.0 < run.stats.onward_hit_rate <= 1.0

    def test_turn_allocations_follow_multiparty(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        engine = CampaignEngine(small_world.service, CampaignConfig(seed=8))
        run = engine.run(calls)
        multiparty = sum(
            1 for result in run.results if result.spec.multiparty
        )
        assert run.stats.turn_allocations == multiparty


class TestPathFidelity:
    def test_matches_service_call_paths(self, small_world, campaign_inputs):
        """Cached resolution must agree with the uncached facade."""
        _, calls = campaign_inputs
        run = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        service = small_world.service
        for result in run.results[:25]:
            spec = result.spec
            reference = service.call_paths(
                spec.caller.prefix,
                spec.caller.location,
                spec.callee.prefix,
                spec.callee.location,
            )
            assert reference is not None
            assert result.entry_pop == reference.entry_pop
            assert result.egress_pop == reference.exit_pop
            assert result.via_vns.rtt_ms == pytest.approx(
                reference.via_vns.rtt_ms()
            )
            assert result.via_internet.rtt_ms == pytest.approx(
                reference.via_internet.rtt_ms()
            )


    def test_pair_paths_are_the_service_paths(self, small_world, campaign_inputs):
        """A resolved pair's views, and the paths built from them on first
        read, are those of the uncached facade at the prefixes' true
        locations — value for value, view bit for bit."""
        from repro.dataplane.path import path_view

        _, calls = campaign_inputs
        engine = CampaignEngine(small_world.service, CampaignConfig(seed=8))
        service = small_world.service
        location = service.topology.prefix_location
        checked = 0
        for spec in calls[:40]:
            src, dst = spec.caller.prefix, spec.callee.prefix
            pair = engine.resolve_pair(src, dst)
            reference = service.call_paths(src, location[src], dst, location[dst])
            assert (pair is None) == (reference is None)
            if pair is None:
                continue
            assert (pair.entry_pop, pair.egress_pop) == (reference.entry_pop, reference.exit_pop)
            assert pair.vns_view == path_view(reference.via_vns)
            assert pair.internet_view == path_view(reference.via_internet)
            assert pair.via_vns == reference.via_vns
            assert pair.via_internet == reference.via_internet
            assert engine.resolve_pair(src, dst).via_vns is pair.via_vns
            checked += 1
        assert checked > 20


class TestBatchedConsistency:
    def test_batch_matches_scalar_distribution(self, small_world, campaign_inputs):
        """One big batch must be statistically consistent with a loop of
        scalar ``simulate_stream`` calls over the same path."""
        population, _ = campaign_inputs
        caller, callee = population.users[0], population.users[1]
        n = 256
        calls = [
            CallSpec(
                call_id=i,
                caller=caller,
                callee=callee,
                day=0,
                start_hour_cet=12.25,
                duration_s=120.0,
                multiparty=False,
            )
            for i in range(n)
        ]
        engine = CampaignEngine(small_world.service, CampaignConfig(seed=8))
        run = engine.run(calls)
        assert run.stats.batches == 1  # identical signatures -> one group
        assert run.stats.largest_batch == n
        pair = engine.resolve_pair(caller.prefix, callee.prefix)
        assert pair is not None

        rng = np.random.default_rng(123)
        scalar = [
            simulate_stream(pair.via_vns, hour_cet=12.5, rng=rng) for _ in range(n)
        ]
        scalar_loss = np.array([s.loss_percent for s in scalar])
        batch_loss = np.array([r.via_vns.loss_percent for r in run.results])
        # Means within 4 combined standard errors of each other.
        stderr = np.sqrt(
            scalar_loss.var() / len(scalar_loss) + batch_loss.var() / len(batch_loss)
        )
        assert abs(scalar_loss.mean() - batch_loss.mean()) < 4 * max(stderr, 1e-9)

        scalar_jitter = np.array([s.jitter_p95_ms for s in scalar])
        batch_jitter = np.array([r.via_vns.jitter_p95_ms for r in run.results])
        jitter_stderr = np.sqrt(
            scalar_jitter.var() / len(scalar_jitter)
            + batch_jitter.var() / len(batch_jitter)
        )
        assert abs(scalar_jitter.mean() - batch_jitter.mean()) < 4 * max(
            jitter_stderr, 1e-9
        )

    def test_hour_binning_groups_within_hour(self, small_world, campaign_inputs):
        """Calls in the same hour bin share one batch; different hours don't."""
        population, _ = campaign_inputs
        caller, callee = population.users[0], population.users[1]
        calls = [
            CallSpec(0, caller, callee, 0, 9.1, 120.0, False),
            CallSpec(1, caller, callee, 0, 9.9, 120.0, False),
            CallSpec(2, caller, callee, 0, 10.1, 120.0, False),
        ]
        run = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        assert run.stats.batches == 2  # {hour 9: 2 calls}, {hour 10: 1 call}
        assert run.stats.largest_batch == 2


class TestResolveAccounting:
    """The pair cache re-counts exactly the legs the original miss consulted."""

    def make_engine(self, small_world):
        return CampaignEngine(small_world.service, CampaignConfig(seed=8))

    def test_successful_pair_counts_both_legs_once(self, small_world, campaign_inputs):
        population, _ = campaign_inputs
        caller, callee = population.users[0], population.users[1]
        engine = self.make_engine(small_world)
        first = CampaignStats()
        pair = engine.resolve_pair(caller.prefix, callee.prefix, first)
        assert pair is not None
        assert (first.onward_hits, first.onward_misses) == (0, 1)
        assert (first.internet_hits, first.internet_misses) == (0, 1)
        again = CampaignStats()
        assert engine.resolve_pair(caller.prefix, callee.prefix, again) is pair
        assert (again.onward_hits, again.onward_misses) == (1, 0)
        assert (again.internet_hits, again.internet_misses) == (1, 0)

    def test_entry_failure_counts_no_leg_lookups(self, small_world, campaign_inputs):
        population, _ = campaign_inputs
        caller, callee = population.users[2], population.users[3]
        engine = self.make_engine(small_world)
        # Make the caller unservable: no anycast entry PoP.
        engine.resolver._entry[caller.prefix] = None
        for _ in range(2):  # miss, then the cached failure
            stats = CampaignStats()
            assert engine.resolve_pair(caller.prefix, callee.prefix, stats) is None
            assert (stats.onward_hits, stats.onward_misses) == (0, 0)
            assert (stats.internet_hits, stats.internet_misses) == (0, 0)

    def test_onward_failure_never_counts_internet(self, small_world, campaign_inputs):
        population, _ = campaign_inputs
        caller, callee = population.users[4], population.users[5]
        engine = self.make_engine(small_world)
        entry, _ = engine.resolver._entry_leg(caller.prefix)
        # Make the onward leg unroutable (cached negative resolution).
        engine.resolver._onward[(entry, callee.prefix)] = None
        for _ in range(2):  # via the onward cache, then via the pair cache
            stats = CampaignStats()
            assert engine.resolve_pair(caller.prefix, callee.prefix, stats) is None
            assert (stats.onward_hits, stats.onward_misses) == (1, 0)
            assert (stats.internet_hits, stats.internet_misses) == (0, 0)

    def test_internet_failure_repeat_counts_both_legs(
        self, small_world, campaign_inputs, monkeypatch
    ):
        """The one failure whose leg flags equal a success's: its repeat
        re-counts both legs and still resolves to nothing."""
        population, _ = campaign_inputs
        caller, callee = population.users[6], population.users[7]
        engine = self.make_engine(small_world)
        # Make the Internet leg unroutable for this test only.
        monkeypatch.setattr(engine.resolver.service, "path_via_internet", lambda *_: None)
        first = CampaignStats()
        assert engine.resolve_pair(caller.prefix, callee.prefix, first) is None
        assert (first.onward_hits, first.onward_misses) == (0, 1)
        assert (first.internet_hits, first.internet_misses) == (0, 1)
        again = CampaignStats()
        assert engine.resolve_pair(caller.prefix, callee.prefix, again) is None
        assert (again.onward_hits, again.onward_misses) == (1, 0)
        assert (again.internet_hits, again.internet_misses) == (1, 0)

    def test_internet_cache_counted_in_campaign(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        run = CampaignEngine(small_world.service, CampaignConfig(seed=8)).run(calls)
        stats = run.stats
        assert stats.internet_misses > 0
        assert stats.internet_hits > 0
        # Every resolved call consulted (or re-counted) each leg exactly once.
        assert stats.internet_hits + stats.internet_misses <= stats.calls_total


class TestCallOrderIndependence:
    """A report depends only on the seed and on *which* calls ran.

    The module docstring's determinism contract, checked directly: the
    same call set in shuffled and in reversed order gives a byte-identical
    report and the same engine accounting, for a plain run, under two
    steering policies, and under a path model.
    """

    @pytest.fixture(scope="class")
    def order_calls(self, small_world):
        population = UserPopulation.sample(small_world.topology, 90, seed=17)
        return CallArrivalProcess(
            population, calls_per_user_day=4.0, multiparty_fraction=0.2, seed=17
        ).generate(days=3)

    @pytest.fixture(scope="class")
    def health_table(self, small_world):
        from repro.steering import SteeringTelemetry

        return SteeringTelemetry(small_world.service, seed=11).collect(
            days=1, minutes_between_rounds=480.0, hosts_per_type_per_region=1
        )

    def engine(self, small_world, health_table, variant: str) -> CampaignEngine:
        config = CampaignConfig(seed=13)
        if variant == "plain":
            return CampaignEngine(small_world.service, config)
        if variant == "path_model":
            from repro.scenarios.loader import ScenarioPathModel

            model = ScenarioPathModel(
                last_mile="geo_satellite", satellite_delay_ms=270.0, satellite_loss=0.012
            )
            return CampaignEngine(small_world.service, config, path_model=model)
        from repro.steering import SteeringEngine, make_policy

        steering = SteeringEngine(
            health=health_table, policy=make_policy(variant), seed=config.seed
        )
        return CampaignEngine(small_world.service, config, steering=steering)

    @pytest.mark.parametrize(
        "variant", ["plain", "threshold_offload", "always_vns", "path_model"]
    )
    def test_shuffled_and_reversed_calls_same_report(
        self, small_world, health_table, order_calls, variant
    ):
        from dataclasses import replace

        assert len(order_calls) > 1000
        shuffled = list(order_calls)
        np.random.default_rng(5).shuffle(shuffled)
        runs = [
            self.engine(small_world, health_table, variant).run(calls)
            for calls in (order_calls, shuffled, order_calls[::-1])
        ]
        reference = runs[0].report.to_json()
        reference_stats = replace(runs[0].stats, elapsed_s=0.0)
        assert reference_stats.calls_resolved > 0
        for run in runs[1:]:
            assert run.report.to_json() == reference
            assert replace(run.stats, elapsed_s=0.0) == reference_stats
