"""Steering end-to-end: campaign engine, sharded identity, detour paths.

The load-bearing guarantees:

* adding a steering engine never perturbs the baseline vns/internet
  report columns (the detour batch draws strictly after them);
* a steered campaign cut into group-preserving slices, each run on its
  own engine, merges to the sequential report byte for byte (decisions
  are pure per call);
* the threshold policy's mean QoE regression stays within its configured
  deltas (the per-call RTT gate bounds it by construction);
* the resolver's caches never depend on steering, though a resolved pair
  carries its steering candidates and detour.
"""

import json
import pickle
from collections import Counter

import pytest

from repro.dataplane.link import SegmentKind
from repro.scenarios.loader import scenario_steering
from repro.steering import (
    PathChoice,
    SteeringEngine,
    SteeringTelemetry,
    make_policy,
)
from repro.workload import (
    CallArrivalProcess,
    CampaignAggregator,
    CampaignConfig,
    CampaignEngine,
    PathResolver,
    UserPopulation,
    partition_calls,
)
from repro.workload.engine import _ResolvedPair

RTT_DELTA_MS = 15.0
LOSS_DELTA_PCT = 0.25


@pytest.fixture(scope="module")
def campaign_calls(small_world):
    population = UserPopulation.sample(small_world.topology, 60, seed=5)
    return CallArrivalProcess(population, calls_per_user_day=3.0, seed=6).generate(
        days=1
    )


@pytest.fixture(scope="module")
def health_table(small_world):
    return SteeringTelemetry(small_world.service, seed=11).collect(
        days=1, minutes_between_rounds=480.0, hosts_per_type_per_region=1
    )


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(seed=7)


def _threshold_engine(health_table, config):
    policy = make_policy("threshold_offload")
    assert (policy.rtt_delta_ms, policy.loss_delta_pct) == (RTT_DELTA_MS, LOSS_DELTA_PCT)
    return SteeringEngine(health=health_table, policy=policy, seed=config.seed)


def _strip_steering(report_dict):
    bare = {k: v for k, v in report_dict.items() if k != "steering"}
    bare["pairs"] = {
        key: {k: v for k, v in pair.items() if k != "steering"}
        for key, pair in report_dict["pairs"].items()
    }
    return bare


class TestSteeredCampaign:
    def test_baseline_columns_unperturbed(
        self, small_world, campaign_calls, health_table, config
    ):
        baseline = CampaignEngine(small_world.service, config).run(campaign_calls)
        steered = CampaignEngine(
            small_world.service,
            config,
            steering=_threshold_engine(health_table, config),
        ).run(campaign_calls)
        assert baseline.report.steering is None
        assert json.dumps(baseline.report.to_dict(), sort_keys=True) == json.dumps(
            _strip_steering(steered.report.to_dict()), sort_keys=True
        )

    def test_threshold_offloads_within_qoe_bounds(
        self, small_world, campaign_calls, health_table, config
    ):
        run = CampaignEngine(
            small_world.service,
            config,
            steering=_threshold_engine(health_table, config),
        ).run(campaign_calls)
        steering = run.report.steering
        assert steering is not None
        assert steering["policy"] == "threshold_offload"
        assert steering["offload_rate"] > 0.0
        assert steering["backbone_bytes_saved"] > 0
        assert steering["backbone_bytes_saved"] <= steering["backbone_bytes"]
        delta = steering["qoe_delta_vs_vns"]
        assert delta["delay_ms_mean"] <= RTT_DELTA_MS
        assert delta["loss_pct_mean"] <= LOSS_DELTA_PCT

    def test_call_results_carry_decisions(
        self, small_world, campaign_calls, health_table, config
    ):
        run = CampaignEngine(
            small_world.service,
            config,
            steering=_threshold_engine(health_table, config),
        ).run(campaign_calls)
        assert all(r.decision is not None for r in run.results)
        assert all(r.steered is not None for r in run.results)
        assert all(r.backbone_bytes > 0 for r in run.results)
        for result in run.results:
            if result.decision.choice is PathChoice.VNS:
                assert result.steered is result.via_vns
            elif result.decision.choice is PathChoice.INTERNET:
                assert result.steered is result.via_internet
            else:
                # A detoured stream is a third draw over a third path.
                assert result.steered is not result.via_vns
                assert result.steered is not result.via_internet

    def test_always_vns_is_the_null_policy(
        self, small_world, campaign_calls, health_table, config
    ):
        engine = SteeringEngine(
            health=health_table, policy=make_policy("always_vns"), seed=config.seed
        )
        run = CampaignEngine(small_world.service, config, steering=engine).run(
            campaign_calls
        )
        steering = run.report.steering
        assert steering["offload_rate"] == 0.0
        assert steering["backbone_bytes_saved"] == 0
        assert steering["qoe_delta_vs_vns"] == {
            "delay_ms_mean": 0.0,
            "loss_pct_mean": 0.0,
        }

    def test_sharded_report_byte_identical(
        self, small_world, campaign_calls, health_table, config
    ):
        sequential = CampaignEngine(
            small_world.service,
            config,
            steering=_threshold_engine(health_table, config),
        ).run(campaign_calls)
        shards = [
            CampaignEngine(
                small_world.service,
                config,
                steering=_threshold_engine(health_table, config),
            ).run(slice_)
            for slice_ in partition_calls(campaign_calls, 3)
        ]
        assert len(shards) == 3
        merged = CampaignAggregator()
        for shard in shards:
            merged.merge(shard.aggregator)
        report = merged.report(
            seed=config.seed,
            n_failed=sum(shard.stats.calls_failed for shard in shards),
            turn_allocations=sum(shard.stats.turn_allocations for shard in shards),
            steering_policy="threshold_offload",
        )
        assert report.to_json() == sequential.report.to_json()

    def test_cost_budget_is_respected(
        self, small_world, campaign_calls, health_table, config
    ):
        from repro.experiments.steering import corridor_payload_bytes

        matrix = corridor_payload_bytes(campaign_calls, config)
        budget = int(sum(matrix.values()) * 0.4)
        policy = make_policy("cost_budgeted", budget_bytes=budget)
        policy.prepare(matrix, health_table)
        engine = SteeringEngine(health=health_table, policy=policy, seed=config.seed)
        run = CampaignEngine(small_world.service, config, steering=engine).run(
            campaign_calls
        )
        steering = run.report.steering
        # The greedy plan targets offloading ~60% of projected bytes; the
        # realised share tracks it (fractional split is exact only in
        # expectation, and failed calls drop out of the projection).
        assert 0.4 <= steering["backbone_saved_fraction"] <= 0.8
        assert steering["offload_rate"] > 0.0


class TestEngineState:
    @pytest.mark.parametrize("policy", ["always_vns", "threshold_offload", "cost_budgeted"])
    def test_a_campaign_leaves_the_engine_the_same_bytes(
        self, small_world, campaign_calls, health_table, config, policy
    ):
        """Decisions are pure per call: a steered campaign leaves nothing
        behind in the engine that a pool worker would be shipped."""
        engine = scenario_steering(policy, health_table, campaign_calls, config)
        before = pickle.dumps(engine)
        CampaignEngine(small_world.service, config, steering=engine).run(campaign_calls)
        assert pickle.dumps(engine) == before


class TestSharedResolver:
    """A pair carries steering-only fields once a steered run resolved it,
    yet what a shared resolver serves never depends on steering."""

    @pytest.mark.parametrize(
        "first, second", [("steered", "bare"), ("bare", "steered")], ids=lambda kind: kind
    )
    def test_a_shared_resolver_reports_as_a_fresh_engine(
        self, small_world, campaign_calls, health_table, config, first, second
    ):
        def engine(kind: str) -> CampaignEngine:
            steering = _threshold_engine(health_table, config) if kind == "steered" else None
            return CampaignEngine(small_world.service, config, steering=steering)

        shared = PathResolver(small_world.service)
        for kind in (first, second):
            warm = engine(kind)
            warm.resolver = shared
            run = warm.run(campaign_calls)
            assert run.report.to_json() == engine(kind).run(campaign_calls).report.to_json()
        assert run.stats.onward_misses == 0  # the second day ran on the warm caches


class TestSteeringMemos:
    """The steered resolve asks the service for a forced local exit once
    per (entry PoP, dst prefix), and keeps each pair's candidates."""

    def test_each_local_exit_is_asked_once_and_candidates_are_kept(
        self, small_world, campaign_calls, health_table, config, monkeypatch
    ):
        service = small_world.service
        asked: Counter = Counter()
        path_local_exit = service.path_local_exit

        def counted(entry_pop, dst_prefix):
            asked[entry_pop, dst_prefix] += 1
            return path_local_exit(entry_pop, dst_prefix)

        monkeypatch.setattr(service, "path_local_exit", counted)
        engine = CampaignEngine(
            service, config, steering=_threshold_engine(health_table, config)
        )
        engine.run(campaign_calls)
        assert asked and max(asked.values()) == 1
        resolver = engine.resolver
        pairs = [pair for pair in resolver._pairs.values() if isinstance(pair, _ResolvedPair)]
        assert pairs
        for pair in pairs:
            candidates = pair.candidates
            assert candidates is not None
            assert resolver.candidates_for(pair) is candidates
        assert max(asked.values()) == 1  # the repeats asked the service nothing


class TestDetourComposition:
    def test_detour_leaves_at_the_entry_pop(self, small_world):
        """The resolver's cached detour is the service's last mile to the
        entry PoP plus the forced local exit there: no backbone circuit."""
        service = small_world.service
        location = service.topology.prefix_location
        resolver = PathResolver(service)
        prefixes = sorted(location, key=str)
        detoured = 0
        for src, dst in zip(prefixes[:10], prefixes[10:20]):
            pair = resolver.resolve_pair(src, dst)
            if pair is None:
                continue
            candidates = resolver.candidates_for(pair)
            detour = pair.via_detour
            exit_leg = service.path_local_exit(pair.entry_pop, dst)
            if exit_leg is None:
                assert detour is None and candidates.detour_rtt_ms is None
                continue
            detoured += 1
            reference = service.last_mile_path(src, location[src], pair.entry_pop)
            assert detour.segments == reference.concat(exit_leg).segments
            kinds = {segment.kind for segment in detour.segments}
            assert SegmentKind.VNS_L2 not in kinds
            assert candidates.detour_rtt_ms == detour.rtt_ms()
            assert candidates.detour_pop == pair.entry_pop
            assert candidates.vns_rtt_ms == pair.via_vns.rtt_ms()
            assert candidates.internet_rtt_ms == pair.via_internet.rtt_ms()
        assert detoured
