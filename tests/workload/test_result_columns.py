"""A run's results as columns: the column fold and the lazy per-call view.

Two identities carry the design:

* ``CampaignAggregator.add_columns`` — the fold every campaign takes —
  leaves the accumulators exactly as folding the materialised calls one
  by one through ``add`` (the per-call oracle) does;
* ``CampaignRun.results`` builds, on demand, the same ``CallResult`` /
  ``StreamResult`` values the kernel's own materialisation
  (``simulate_stream_columns``) produces, in call order.
"""

import pickle

import numpy as np
import pytest

from repro.dataplane.columnar import StreamColumnSpec, simulate_stream_columns
from repro.dataplane.link import degrade_segment
from repro.dataplane.path import DataPath
from repro.steering import PathChoice, SteeringEngine, SteeringTelemetry, make_policy
from repro.workload import (
    CallArrivalProcess,
    CallResults,
    CampaignAggregator,
    CampaignConfig,
    CampaignEngine,
    ShardedCampaignRunner,
    ShardPlan,
    ShardTask,
    UserPopulation,
    group_key,
    partition_calls,
)
from repro.workload.engine import PathResolver, group_digest
from repro.workload.sharded import _execute_shard

CONFIG = CampaignConfig(seed=7)
POLICIES = ("always_vns", "threshold_offload", "cost_budgeted")


class ImpairedVns:
    """A picklable path model: the VNS transport's first segment degraded."""

    def transform(self, path: DataPath, transport: str, *, entry_pop: str) -> DataPath:
        if transport != "vns":
            return path
        first = degrade_segment(path.segments[0], extra_loss=0.01, extra_delay_ms=5.0)
        return DataPath(segments=[first, *path.segments[1:]], description=path.description)


@pytest.fixture(scope="module")
def calls(small_world):
    population = UserPopulation.sample(small_world.topology, 60, seed=5)
    return CallArrivalProcess(
        population, calls_per_user_day=3.0, multiparty_fraction=0.25, seed=6
    ).generate(days=1)


@pytest.fixture(scope="module")
def health_table(small_world):
    return SteeringTelemetry(small_world.service, seed=11).collect(
        days=1, minutes_between_rounds=480.0, hosts_per_type_per_region=1
    )


def steering_engine(name, health_table, calls):
    if name == "cost_budgeted":
        from repro.experiments.steering import corridor_payload_bytes

        matrix = corridor_payload_bytes(calls, CONFIG)
        policy = make_policy(name, budget_bytes=int(sum(matrix.values()) * 0.4))
        policy.prepare(matrix, health_table)
    else:
        policy = make_policy(name)
    return SteeringEngine(health=health_table, policy=policy, seed=CONFIG.seed)


def refold(run) -> CampaignAggregator:
    """The per-call oracle: every materialised call through ``add``."""
    aggregator = CampaignAggregator()
    for result in run.results:
        aggregator.add(result)
    return aggregator


def assert_fold_identical(run) -> None:
    oracle = refold(run)
    # Same accumulators, field for field (sample lists in the same order) …
    assert oracle.pairs == run.aggregator.pairs
    assert list(oracle.pairs) == list(run.aggregator.pairs)
    # … hence the same report, byte for byte.
    report = oracle.report(
        seed=run.seed,
        n_failed=run.stats.calls_failed,
        turn_allocations=run.stats.turn_allocations,
        steering_policy=run.steering_policy,
    )
    assert report.to_json() == run.report.to_json()


class TestColumnFold:
    def test_without_steering(self, small_world, calls):
        run = CampaignEngine(small_world.service, CONFIG).run(calls)
        assert run.report.n_calls == len(run.results) > 0
        assert run.report.steering is None
        assert_fold_identical(run)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_under_each_steering_policy(self, small_world, calls, health_table, policy):
        engine = steering_engine(policy, health_table, calls)
        run = CampaignEngine(small_world.service, CONFIG, steering=engine).run(calls)
        assert run.report.steering["policy"] == policy
        assert_fold_identical(run)

    def test_detour_column_is_folded(self, small_world, calls, health_table):
        engine = steering_engine("threshold_offload", health_table, calls)
        run = CampaignEngine(small_world.service, CONFIG, steering=engine).run(calls)
        detoured = [
            r for r in run.results if r.decision.choice is PathChoice.POP_DETOUR
        ]
        assert detoured and run.report.steering["detour_calls"] == len(detoured)
        for result in detoured:
            assert result.steered is not result.via_vns
            assert result.steered is not result.via_internet

    def test_with_a_path_model(self, small_world, calls):
        plain = CampaignEngine(small_world.service, CONFIG).run(calls)
        run = CampaignEngine(small_world.service, CONFIG, path_model=ImpairedVns()).run(
            calls
        )
        assert run.report.to_json() != plain.report.to_json()
        assert_fold_identical(run)

    def test_after_a_four_shard_merge(self, small_world, calls, health_table):
        def steering():
            return steering_engine("threshold_offload", health_table, calls)

        sequential = CampaignEngine(small_world.service, CONFIG, steering=steering()).run(
            calls
        )
        shards = [
            CampaignEngine(small_world.service, CONFIG, steering=steering()).run(slice_)
            for slice_ in partition_calls(calls, 4)
        ]
        assert len(shards) == 4
        merged = CampaignAggregator()
        for shard in shards:
            merged.merge(shard.aggregator)
        columns = CallResults.concat([shard.results for shard in shards])

        def report(aggregator):
            return aggregator.report(
                seed=CONFIG.seed,
                n_failed=sum(shard.stats.calls_failed for shard in shards),
                turn_allocations=sum(shard.stats.turn_allocations for shard in shards),
                steering_policy="threshold_offload",
            ).to_json()

        assert report(merged) == sequential.report.to_json()
        # The merged columns re-fold, per call, to the merged report.
        oracle = CampaignAggregator()
        for result in columns:
            oracle.add(result)
        assert report(oracle) == sequential.report.to_json()

    def test_empty_columns_fold_to_nothing(self, small_world):
        run = CampaignEngine(small_world.service, CONFIG).run([])
        assert len(run.results) == 0 and list(run.results) == []
        assert run.aggregator.pairs == {}
        assert run.report.n_calls == 0


def assert_same_stream(lazy, eager) -> None:
    assert lazy.packets_sent == eager.packets_sent
    assert np.array_equal(lazy.slot_losses, eager.slot_losses)
    assert lazy.jitter_p95_ms == eager.jitter_p95_ms
    assert lazy.rtt_ms == eager.rtt_ms
    assert lazy.packets_lost == eager.packets_lost
    assert lazy.heavy_loss_slots == eager.heavy_loss_slots
    assert lazy.n_slots == eager.n_slots
    assert lazy.loss_percent == eager.loss_percent


def assert_same_call(a, b) -> None:
    assert a.spec == b.spec
    assert (a.entry_pop, a.egress_pop) == (b.entry_pop, b.egress_pop)
    assert_same_stream(a.via_vns, b.via_vns)
    assert_same_stream(a.via_internet, b.via_internet)
    assert a.decision == b.decision and a.backbone_bytes == b.backbone_bytes
    assert (a.steered is None) == (b.steered is None)
    if a.steered is not None:
        assert_same_stream(a.steered, b.steered)


class TestLazyResults:
    def test_streams_equal_the_kernels_materialised_streams(self, small_world, calls):
        """Field by field against ``simulate_stream_columns`` over the
        same stream columns, gathered independently of the engine."""
        engine = CampaignEngine(small_world.service, CONFIG)
        run = engine.run(calls)
        groups: dict = {}
        for spec in calls:
            if engine.resolve_pair(spec.caller.prefix, spec.callee.prefix) is not None:
                groups.setdefault(group_key(spec), []).append(spec)
        specs = []
        for key, members in groups.items():
            pair = engine.resolve_pair(key[0], key[1])
            digest = group_digest(CONFIG.seed, key)
            for salt, path in enumerate((pair.via_vns, pair.via_internet)):
                specs.append(
                    StreamColumnSpec(path, len(members), key[3], key[2] + 0.5, digest, salt)
                )
        streams = simulate_stream_columns(specs)
        eager = {}
        for at, members in enumerate(groups.values()):
            for slot, spec in enumerate(members):
                eager[spec.call_id] = (streams[2 * at][slot], streams[2 * at + 1][slot])
        assert len(run.results) == len(eager) == run.stats.calls_resolved
        for result in run.results:
            via_vns, via_internet = eager[result.spec.call_id]
            assert_same_stream(result.via_vns, via_vns)
            assert_same_stream(result.via_internet, via_internet)
            pair = engine.resolve_pair(result.spec.caller.prefix, result.spec.callee.prefix)
            assert (result.entry_pop, result.egress_pop) == (pair.entry_pop, pair.egress_pop)
            assert result.decision is None and result.steered is None
            assert result.backbone_bytes == 0

    def test_len_index_and_iteration_order(self, small_world, calls):
        engine = CampaignEngine(small_world.service, CONFIG)
        run = engine.run(calls)
        results = run.results
        assert isinstance(results, CallResults)
        resolved = [
            spec
            for spec in calls
            if engine.resolve_pair(spec.caller.prefix, spec.callee.prefix) is not None
        ]
        assert len(results) == len(resolved)
        # Iteration is call-list order, and agrees with indexing.
        listed = list(results)
        assert [r.spec for r in listed] == resolved
        for at in (0, 1, len(results) // 2, len(results) - 1):
            assert_same_call(results[at], listed[at])
        assert_same_call(results[-1], listed[-1])
        assert_same_call(results[-len(results)], listed[0])
        for ours, theirs in zip(results[3:11:2], listed[3:11:2], strict=True):
            assert_same_call(ours, theirs)
        assert results[len(results) :] == []
        with pytest.raises(IndexError):
            results[len(results)]
        with pytest.raises(IndexError):
            results[-len(results) - 1]

    def test_pickling_round_trips(self, small_world, calls, health_table):
        engine = steering_engine("threshold_offload", health_table, calls)
        run = CampaignEngine(small_world.service, CONFIG, steering=engine).run(calls)
        clone = pickle.loads(pickle.dumps(run))
        assert len(clone.results) == len(run.results)
        for ours, theirs in zip(clone.results, run.results, strict=True):
            assert_same_call(ours, theirs)
        assert clone.report.to_json() == run.report.to_json()
        assert_fold_identical(clone)

    def test_keep_results_off_leaves_nothing_behind(self, small_world, calls):
        resolver = PathResolver(small_world.service)
        # What a shard sends to the parent: its run and its outcome.
        kept = _execute_shard(resolver, ShardTask(index=0, calls=calls, config=CONFIG))
        dropped = _execute_shard(
            resolver, ShardTask(index=0, calls=calls, config=CONFIG, keep_results=False)
        )
        (kept_run, _), (dropped_run, _) = kept, dropped
        assert len(kept_run.results) > 0 and dropped_run.results == []
        # What goes to the parent holds no column and no call.
        blob = pickle.dumps(dropped)
        assert b"StreamColumns" not in blob and b"CallSpec" not in blob
        assert b"StreamColumns" in pickle.dumps(kept)
        assert dropped_run.report.to_json() == kept_run.report.to_json()
        run = ShardedCampaignRunner(
            small_world.service, CONFIG, ShardPlan(n_shards=3, keep_results=False)
        ).run(calls)
        assert run.results == [] and run.report.to_json() == kept_run.report.to_json()

    def test_a_shard_never_freezes_a_report(self, small_world, calls):
        run, _ = _execute_shard(
            PathResolver(small_world.service), ShardTask(index=0, calls=calls, config=CONFIG)
        )
        assert run._report is None
        report = run.report
        assert run.report is report  # frozen once, then the same object
