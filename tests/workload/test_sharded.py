"""Tests for the one campaign execution path (partition/execute/reduce).

The determinism contract: a runner's report — in-process or across a
real spawn pool, however many shards, whether or not a shard the pool
could not finish ran again in this process — is byte-identical in
``CampaignReport.to_json()`` to a bare ``CampaignEngine`` over the whole
call list under the same seed.  That is structural (every shard *is* a
``CampaignEngine`` over a slice; the sequential campaign is the
one-shard run), so one parametrised invariant pins it.

Recovery is drilled with real faults: path models that kill or raise in
a pool worker (and only there, so a salvaged report must still equal the
bare engine's) or raise in every process.
"""

import os
import pickle
from multiprocessing import parent_process

import pytest

from repro import perf
from repro.workload import (
    CallArrivalProcess,
    CampaignConfig,
    CampaignEngine,
    ShardedCampaignRunner,
    ShardExecutionError,
    ShardPlan,
    UserPopulation,
    group_key,
    partition_calls,
)
from repro.workload.sharded import PHASES


class _WorkerFault:
    """The identity path model in this process; misbehaves in a pool worker.

    Module level, so a spawned worker unpickles it by name.
    """

    def transform(self, path, transport, *, entry_pop):
        if parent_process() is not None:
            self.misbehave()
        return path

    def fingerprint(self) -> str:
        return type(self).__name__


class DiesInWorker(_WorkerFault):
    """Kills the worker process that applies it: the pool breaks."""

    def misbehave(self) -> None:
        os._exit(1)


class RaisesInWorker(_WorkerFault):
    """Raises in the worker; the pool itself stays usable."""

    MESSAGE = "path model raised in a worker"

    def misbehave(self) -> None:
        raise RuntimeError(self.MESSAGE)


class RaisesEverywhere(_WorkerFault):
    """Raises in every process, this one included."""

    MESSAGE = "path model raised"

    def transform(self, path, transport, *, entry_pop):
        raise RuntimeError(self.MESSAGE)


def every_shard_has_every_phase(run) -> bool:
    """The run's one cost record is complete: each outcome's ``phase_s``
    carries wall and CPU seconds for every engine phase."""
    return all(
        set(outcome.phase_s[phase]) == {"total_s", "cpu_s"}
        for outcome in run.shards
        for phase in PHASES
    )


@pytest.fixture(scope="module")
def campaign_inputs(small_world):
    population = UserPopulation.sample(small_world.topology, 60, seed=11)
    calls = CallArrivalProcess(
        population, calls_per_user_day=2.0, multiparty_fraction=0.25, seed=12
    ).generate(days=1)
    return population, calls


@pytest.fixture(scope="module")
def sequential_json(small_world, campaign_inputs):
    _, calls = campaign_inputs
    run = CampaignEngine(small_world.service, CampaignConfig(seed=7)).run(calls)
    return run.report.to_json()


class TestPartition:
    def test_preserves_all_calls_and_order(self, campaign_inputs):
        _, calls = campaign_inputs
        shards = partition_calls(calls, 4)
        assert sum(len(s) for s in shards) == len(calls)
        positions = {spec.call_id: i for i, spec in enumerate(calls)}
        for shard in shards:
            assert shard  # never empty
            indices = [positions[spec.call_id] for spec in shard]
            assert indices == sorted(indices)
        seen = [spec.call_id for shard in shards for spec in shard]
        assert sorted(seen) == sorted(spec.call_id for spec in calls)

    def test_never_splits_a_group(self, campaign_inputs):
        _, calls = campaign_inputs
        shards = partition_calls(calls, 5)
        owner: dict = {}
        for index, shard in enumerate(shards):
            for spec in shard:
                key = group_key(spec)
                assert owner.setdefault(key, index) == index

    def test_deterministic(self, campaign_inputs):
        _, calls = campaign_inputs
        first = partition_calls(calls, 3)
        second = partition_calls(calls, 3)
        assert [[s.call_id for s in shard] for shard in first] == [
            [s.call_id for s in shard] for shard in second
        ]

    def test_degenerate_inputs(self, campaign_inputs):
        _, calls = campaign_inputs
        assert partition_calls([], 4) == []
        assert partition_calls(calls, 1) == [list(calls)]
        only = [calls[0]]
        assert partition_calls(only, 8) == [only]


class TestPairIndex:
    """One walk of the call list serves the cut, the costs, the warm-up
    manifest and its digest; each must equal its per-call derivation."""

    @staticmethod
    def reference_partition(calls, n_shards, slot_s=5.0):
        """The cut, derived call by call with text keys (the oracle)."""
        from repro.workload.sharded import predicted_group_cost

        buckets, durations = {}, {}
        for position, spec in enumerate(calls):
            key = (str(spec.caller.prefix), str(spec.callee.prefix))
            buckets.setdefault(key, []).append(position)
            durations[key] = durations.get(key, 0.0) + spec.duration_s
        weights = {
            key: predicted_group_cost(len(at), durations[key], slot_s=slot_s)
            for key, at in buckets.items()
        }
        loads, members = [0.0] * n_shards, [[] for _ in range(n_shards)]
        for key, at in sorted(buckets.items(), key=lambda kv: (-weights[kv[0]], kv[0])):
            target = loads.index(min(loads))
            members[target].extend(at)
            loads[target] += weights[key]
        return [[calls[i] for i in sorted(at)] for at in members if at], weights

    def test_cut_costs_manifest_and_digest(self, campaign_inputs):
        from hashlib import blake2b

        from repro.workload import predicted_shard_cost, warmup_manifest
        from repro.workload.sharded import _PairIndex

        _, calls = campaign_inputs
        index = _PairIndex.of(calls)
        for n_shards in (2, 3, 5):
            slices, weights = self.reference_partition(calls, n_shards)
            shard_pairs = index.partition(n_shards, 5.0)
            assert [index.slice_of(pairs, calls) for pairs in shard_pairs] == slices
            assert partition_calls(calls, n_shards) == slices
            assert sum(index.costs(5.0)) == sum(weights.values())
            for pairs, slice_ in zip(shard_pairs, slices):
                # A shard's manifest: its slice's unique pairs, sorted by text.
                manifest, digest = index.manifest(pairs)
                texts = sorted({(str(s.caller.prefix), str(s.callee.prefix)) for s in slice_})
                assert [(str(a), str(b)) for a, b in manifest] == texts
                assert manifest == warmup_manifest(slice_)
                joined = "|".join(f"{a}>{b}" for a, b in texts)
                assert digest == blake2b(joined.encode("ascii"), digest_size=8).hexdigest()
                assert predicted_shard_cost(slice_) == pytest.approx(
                    sum(weights[key] for key in texts)  # summed in another order
                )


class TestPlanValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="n_workers"):
            ShardPlan(n_workers=0)
        with pytest.raises(ValueError, match="n_shards"):
            ShardPlan(n_shards=0)

    def test_removed_variants_are_gone(self, small_world):
        # World transports, the rebuild recipe, force_inprocess and the
        # retry knobs were deleted outright (no shim): plain TypeError,
        # like any unknown keyword.
        from repro.workload import CampaignWorkerPool

        with pytest.raises(TypeError):
            ShardPlan(world_transport="pickle")
        with pytest.raises(TypeError):
            ShardPlan(force_inprocess=True)
        with pytest.raises(TypeError):
            ShardPlan(max_retries=1)
        with pytest.raises(TypeError):
            ShardPlan(fail_injections=((0, 1),))
        with pytest.raises(TypeError):
            ShardPlan(shard_timeout_s=1.0)
        with pytest.raises(TypeError):
            ShardedCampaignRunner(
                small_world.service, CampaignConfig(), world_spec=object()
            )
        with pytest.raises(TypeError):
            CampaignWorkerPool(small_world.service, world_transport="frozen")
        with pytest.raises(TypeError):
            CampaignWorkerPool(small_world.service, world_spec=object())


class TestInProcessEquivalence:
    def test_byte_identical_report(
        self, small_world, campaign_inputs, sequential_json
    ):
        _, calls = campaign_inputs
        for n_shards in (2, 3, 5):
            run = ShardedCampaignRunner(
                small_world.service,
                CampaignConfig(seed=7),
                ShardPlan(n_shards=n_shards),
            ).run(calls)
            assert run.report.to_json() == sequential_json
            assert all(outcome.in_process for outcome in run.shards)

    def test_results_merge_complete_and_sorted(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        run = ShardedCampaignRunner(
            small_world.service,
            CampaignConfig(seed=7),
            ShardPlan(n_shards=3),
        ).run(calls)
        ids = [result.spec.call_id for result in run.results]
        assert ids == sorted(ids)
        assert len(ids) == run.stats.calls_resolved

    def test_keep_results_off_keeps_report(
        self, small_world, campaign_inputs, sequential_json
    ):
        _, calls = campaign_inputs
        run = ShardedCampaignRunner(
            small_world.service,
            CampaignConfig(seed=7),
            ShardPlan(n_shards=2, keep_results=False),
        ).run(calls)
        assert run.results == []
        assert run.report.to_json() == sequential_json

    def test_does_not_leak_perf_state(self, small_world, campaign_inputs):
        _, calls = campaign_inputs
        perf.disable()
        perf.reset()
        run = ShardedCampaignRunner(
            small_world.service,
            CampaignConfig(seed=7),
            ShardPlan(n_shards=2),
        ).run(calls)
        assert not perf.is_enabled()
        assert perf.snapshot().timers == {}
        # ... yet the run still captured its own phase timings.
        assert run.shards[0].phase_s["simulate"]["total_s"] > 0.0


class TestPickledWorldRoundTrip:
    def test_service_round_trips_and_reproduces(
        self, small_world, campaign_inputs, sequential_json
    ):
        _, calls = campaign_inputs
        clone = pickle.loads(
            pickle.dumps(small_world.service, protocol=pickle.HIGHEST_PROTOCOL)
        )
        run = CampaignEngine(clone, CampaignConfig(seed=7)).run(calls)
        assert run.report.to_json() == sequential_json


@pytest.mark.slow
class TestSpawnPool:
    """One real 2-worker spawn pool run (the CI smoke's tier-1 twin).

    Shards stream: the plan cuts more slices than the pool has workers.
    """

    def test_pool_run_byte_identical(
        self, small_world, campaign_inputs, sequential_json
    ):
        from repro.workload import CampaignWorkerPool

        _, calls = campaign_inputs
        # n_shards pinned to 4: the auto 2x-workers streaming default
        # clamps back to one slice per worker for a campaign this small.
        with CampaignWorkerPool(small_world.service, workers=2) as pool:
            run = ShardedCampaignRunner(
                small_world.service,
                CampaignConfig(seed=7),
                ShardPlan(n_workers=2, n_shards=4),
                pool=pool,
            ).run(calls)
        assert len(run.shards) == 4  # streaming: more shards than workers
        assert all(not outcome.in_process for outcome in run.shards)
        assert run.report.to_json() == sequential_json
        assert run.simulate_critical_path_s(cpu=True) > 0.0
        # Fan-out overheads are attributed, not hidden: every pooled
        # shard reports its queue wait, each worker its world ship and
        # warmup once.
        assert all("queue_wait_s" in o.phase_s for o in run.shards)
        shipped = [o for o in run.shards if "world_ship_s" in o.phase_s]
        assert 1 <= len(shipped) <= 2
        assert all("warmup_s" in o.phase_s for o in shipped)
        assert run.overhead_s("world_ship_s") > 0.0
        assert every_shard_has_every_phase(run)
        assert run.pool_stats is not None
        assert run.pool_stats.world_bytes > 0


@pytest.mark.slow
class TestPersistentPool:
    """Pool lifecycle: reuse, salvage of shards that raised there, shutdown."""

    def test_reuse_across_runs_and_salvage(
        self, small_world, campaign_inputs, sequential_json
    ):
        from repro.workload import CampaignWorkerPool

        _, calls = campaign_inputs
        with CampaignWorkerPool(small_world.service, workers=2) as pool:
            plan = ShardPlan(n_workers=2)
            first = ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan, pool=pool
            ).run(calls)
            assert first.report.to_json() == sequential_json
            dumped_once = pool.stats.world_dump_s
            # Second campaign through the same (already-warm) pool: no
            # respawn, no second world dump, byte-identical again.  Each
            # worker reports its (one-time) ship cost at most once across
            # all runs it serves.
            second = ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan, pool=pool
            ).run(calls)
            assert second.report.to_json() == sequential_json
            assert pool.stats.world_dump_s == dumped_once
            ship_reports = sum(
                1
                for run in (first, second)
                for outcome in run.shards
                if "world_ship_s" in outcome.phase_s
            )
            assert ship_reports <= 2
            assert pool.stats.runs == 2
            # Every shard raises on the pool: each runs once more here,
            # where the model is the identity, and the report is intact.
            salvaged = ShardedCampaignRunner(
                small_world.service,
                CampaignConfig(seed=7),
                plan,
                path_model=RaisesInWorker(),
                pool=pool,
            ).run(calls)
            assert all(o.in_process and o.attempts == 2 for o in salvaged.shards)
            assert all(
                o.failures == [f"pool: RuntimeError: {RaisesInWorker.MESSAGE}"]
                for o in salvaged.shards
            )
            assert salvaged.report.to_json() == sequential_json
            assert salvaged.to_row()["shard_retries"] == len(salvaged.shards)
            # A shard that raised does not break the pool: the next run
            # is pooled through.
            assert not pool.broken
            clean = ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan, pool=pool
            ).run(calls)
            assert all(not o.in_process and o.attempts == 1 for o in clean.shards)
            assert clean.report.to_json() == sequential_json
        assert pool.closed

    def test_context_manager_shuts_down_on_exception(self, small_world):
        from repro.workload import CampaignWorkerPool

        pool = CampaignWorkerPool(small_world.service, workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            with pool:
                raise RuntimeError("boom")
        assert pool.closed
        with pytest.raises(RuntimeError, match="shut down"):
            pool.start()


@pytest.mark.slow
class TestRecovery:
    """A shard the pool could not finish runs once more in this process."""

    def test_worker_death_breaks_the_pool_not_the_run(
        self, small_world, campaign_inputs, sequential_json
    ):
        from repro.workload import CampaignWorkerPool

        _, calls = campaign_inputs
        plan = ShardPlan(n_workers=2, n_shards=4)
        with CampaignWorkerPool(small_world.service, workers=2) as pool:
            run = ShardedCampaignRunner(
                small_world.service,
                CampaignConfig(seed=7),
                plan,
                path_model=DiesInWorker(),
                pool=pool,
            ).run(calls)
            assert pool.broken
            # The broken pool (already warm for these pairs) refuses the
            # next run's shards at submit: each runs here instead.
            refused = ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan, pool=pool
            ).run(calls)
        for salvaged in (run, refused):
            assert len(salvaged.shards) == 4
            for outcome in salvaged.shards:
                assert outcome.in_process and outcome.attempts == 2
                [failure] = outcome.failures
                assert failure.startswith("pool: BrokenProcessPool: ")
            assert salvaged.report.to_json() == sequential_json

    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no-pool"])
    def test_raising_everywhere_carries_both_failures(
        self, small_world, campaign_inputs, pooled
    ):
        from repro.workload import CampaignWorkerPool

        _, calls = campaign_inputs
        pool = CampaignWorkerPool(small_world.service, workers=2) if pooled else None
        try:
            with pytest.raises(ShardExecutionError, match=r"^shard \d+ failed") as caught:
                ShardedCampaignRunner(
                    small_world.service,
                    CampaignConfig(seed=7),
                    ShardPlan(n_workers=2, n_shards=2),
                    path_model=RaisesEverywhere(),
                    pool=pool,
                ).run(calls)
        finally:
            if pool is not None:
                pool.shutdown()
        error = caught.value
        assert error.shard_index in (0, 1)
        here = f"in-process: RuntimeError: {RaisesEverywhere.MESSAGE}"
        there = f"pool: RuntimeError: {RaisesEverywhere.MESSAGE}"
        assert error.failures == ([there, here] if pooled else [here])


class TestCheckpointResume:
    def test_resume_skips_completed_and_reproduces_report(
        self, small_world, campaign_inputs, sequential_json, tmp_path
    ):
        _, calls = campaign_inputs
        plan = ShardPlan(n_shards=3, checkpoint_dir=str(tmp_path))

        def run_once():
            return ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan
            ).run(calls)

        first = run_once()
        assert first.report.to_json() == sequential_json
        assert not any(outcome.resumed for outcome in first.shards)
        assert every_shard_has_every_phase(first)
        saved = sorted(tmp_path.glob("shard-*.pkl"))
        assert len(saved) == 3
        # Rerun: every shard restores from its checkpoint.
        resumed = run_once()
        assert all(outcome.resumed for outcome in resumed.shards)
        assert resumed.report.to_json() == sequential_json
        # A restored shard carries the costs it was recorded with.
        assert every_shard_has_every_phase(resumed)
        assert [o.phase_s for o in resumed.shards] == [o.phase_s for o in first.shards]
        # Partial resume: drop one shard's file, only it re-executes.
        saved[1].unlink()
        partial = run_once()
        assert sum(not outcome.resumed for outcome in partial.shards) == 1
        assert partial.report.to_json() == sequential_json
        assert every_shard_has_every_phase(partial)

    def test_different_campaign_ignores_checkpoints(
        self, small_world, campaign_inputs, tmp_path
    ):
        _, calls = campaign_inputs
        plan = ShardPlan(n_shards=2, checkpoint_dir=str(tmp_path))
        ShardedCampaignRunner(
            small_world.service, CampaignConfig(seed=7), plan
        ).run(calls)
        other = ShardedCampaignRunner(
            small_world.service, CampaignConfig(seed=8), plan
        ).run(calls)
        assert not any(outcome.resumed for outcome in other.shards)


    def test_damaged_checkpoints_are_absent_never_wrong(
        self, small_world, campaign_inputs, sequential_json, tmp_path
    ):
        """The corrupt-checkpoint drill: truncate and flip bytes of saved
        shards under a seed.  A load is ``None`` or a valid pair — never
        an exception, never altered data — and the resumed report is
        byte-identical."""
        import numpy as np

        from repro.workload.sharded import ShardOutcome, _ShardResult

        _, calls = campaign_inputs
        plan = ShardPlan(n_shards=3, checkpoint_dir=str(tmp_path))

        def runner():
            return ShardedCampaignRunner(small_world.service, CampaignConfig(seed=7), plan)

        first = runner()
        first.run(calls)
        store = first._checkpoints
        pristine = {index: store.path(index).read_bytes() for index in range(3)}
        rng = np.random.default_rng(2024)
        outcomes = {"absent": 0, "valid": 0}
        for trial in range(60):
            index = trial % 3
            blob = bytearray(pristine[index])
            if trial % 2:
                blob = blob[: int(rng.integers(0, len(blob) + 1))]
            else:
                for at in rng.integers(0, len(blob), size=int(rng.integers(1, 4))):
                    blob[at] ^= 1 << int(rng.integers(0, 8))
            store.path(index).write_bytes(bytes(blob))
            loaded = store.load(index)
            if loaded is None:
                outcomes["absent"] += 1
            else:
                # Only an untouched file (a "truncation" at full length) loads.
                assert bytes(blob) == pristine[index]
                result, outcome = loaded
                assert isinstance(result, _ShardResult) and result.index == index
                assert isinstance(outcome, ShardOutcome) and outcome.resumed
                outcomes["valid"] += 1
        assert outcomes["absent"] >= 55
        # Files that are not checkpoints at all, under a checkpoint's name.
        store.path(0).write_bytes(b"")
        store.path(1).write_bytes(pickle.dumps(("not", "a shard")))
        assert store.load(0) is None and store.load(1) is None
        # Resume over whatever the drill left: damaged shards re-execute.
        resumed = runner().run(calls)
        assert resumed.report.to_json() == sequential_json
        assert any(not outcome.resumed for outcome in resumed.shards)
        # ... and are saved again, so the next resume restores all three.
        assert all(outcome.resumed for outcome in runner().run(calls).shards)

    def test_checkpoint_of_another_layout_is_never_found(
        self, small_world, campaign_inputs, tmp_path, monkeypatch
    ):
        from repro.workload import sharded

        _, calls = campaign_inputs
        plan = ShardPlan(n_shards=2, checkpoint_dir=str(tmp_path))

        def run_once():
            return ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan
            ).run(calls)

        run_once()
        monkeypatch.setattr(sharded, "CHECKPOINT_LAYOUT", "some-other-layout")
        assert not any(outcome.resumed for outcome in run_once().shards)


class TestCostBalance:
    def test_predicted_costs_are_balanced(self, campaign_inputs):
        from repro.workload import predicted_shard_cost

        _, calls = campaign_inputs
        for n_shards in (2, 4):
            shards = partition_calls(calls, n_shards)
            costs = [predicted_shard_cost(shard) for shard in shards]
            assert min(costs) > 0.0
            assert max(costs) / min(costs) <= 1.3


class TestWarmupManifest:
    def test_manifest_is_unique_sorted_and_warmable(
        self, small_world, campaign_inputs, sequential_json
    ):
        from repro.workload import warmup_manifest

        _, calls = campaign_inputs
        manifest = warmup_manifest(calls)
        keys = [(str(a), str(b)) for a, b in manifest]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # Warming an engine changes nothing about its report.
        engine = CampaignEngine(small_world.service, CampaignConfig(seed=7))
        assert engine.warm_pairs(manifest) > 0
        assert engine.run(calls).report.to_json() == sequential_json


class TestOneExecutionPath:
    """Any shard count reduces to the bare engine's report, byte for byte.

    Each shard is a plain ``CampaignEngine`` over a group-preserving
    slice and draws are keyed per group, so the identity holds for any
    cut, with or without steering and a path model; the sequential
    campaign is simply ``k = 1``.
    """

    @pytest.fixture(scope="class")
    def cells(self, small_world, campaign_inputs):
        """``(steered, modelled) -> (steering, path_model, bare-engine JSON)``."""
        from repro.scenarios import ScenarioPathModel
        from repro.steering import SteeringEngine, SteeringTelemetry, make_policy

        _, calls = campaign_inputs
        health = SteeringTelemetry(
            small_world.service, seed=11, packets_per_round=20
        ).collect(days=1, minutes_between_rounds=480.0, hosts_per_type_per_region=1)
        engine = SteeringEngine(
            health=health, policy=make_policy("threshold_offload"), seed=7
        )
        model = ScenarioPathModel(
            last_mile="geo_satellite",
            satellite_delay_ms=270.0,
            satellite_loss=0.012,
            pop_overload=(("LON", 2.0),),
        )
        cells = {}
        for steered in (False, True):
            for modelled in (False, True):
                steering = engine if steered else None
                path_model = model if modelled else None
                bare = CampaignEngine(
                    small_world.service,
                    CampaignConfig(seed=7),
                    steering=steering,
                    path_model=path_model,
                ).run(calls)
                cells[steered, modelled] = (steering, path_model, bare.report.to_json())
        return cells

    @pytest.mark.parametrize("modelled", [False, True], ids=["plain", "model"])
    @pytest.mark.parametrize("steered", [False, True], ids=["unsteered", "threshold"])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_k_shards_equal_engine(
        self, small_world, campaign_inputs, cells, k, steered, modelled
    ):
        _, calls = campaign_inputs
        steering, path_model, bare_json = cells[steered, modelled]
        run = ShardedCampaignRunner(
            small_world.service,
            CampaignConfig(seed=7),
            ShardPlan(n_shards=k),
            steering=steering,
            path_model=path_model,
        ).run(calls)
        assert run.report.to_json() == bare_json
        assert len(run.shards) == k
        assert all(o.in_process and o.attempts == 1 for o in run.shards)
        assert every_shard_has_every_phase(run)

    def test_default_plan_is_one_inprocess_shard(
        self, small_world, campaign_inputs, sequential_json
    ):
        _, calls = campaign_inputs
        run = ShardedCampaignRunner(small_world.service, CampaignConfig(seed=7)).run(
            calls
        )
        assert run.report.to_json() == sequential_json
        [outcome] = run.shards
        assert outcome.in_process and outcome.attempts == 1
        assert outcome.n_calls == len(calls)
        assert run.pool_stats is None
        assert every_shard_has_every_phase(run)
