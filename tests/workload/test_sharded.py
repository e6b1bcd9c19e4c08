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
bare engine's) or raise in every process.  A pool freezes the service
when it starts, so the runner refuses a pool started before the world's
last fault or repair; a runner with no pool resolves each run afresh and
so follows the fault (:class:`TestStalePool`).
"""

import dataclasses
import os
import pickle
from multiprocessing import parent_process

import numpy as np
import pytest

from repro import perf
from repro.experiments.common import build_world
from repro.faults import FaultInjector, LinkDown, PopDown
from repro.workload import (
    CallArrivalProcess,
    CampaignConfig,
    CampaignEngine,
    CampaignWorkerPool,
    ShardedCampaignRunner,
    ShardExecutionError,
    ShardPlan,
    StalePoolError,
    UserPopulation,
    group_key,
    partition_calls,
)
from repro.workload.sharded import PHASES, converged_state


class _WorkerFault:
    """The identity path model in this process; misbehaves in a pool worker.

    Module level, so a spawned worker unpickles it by name.
    """

    def transform(self, path, transport, *, entry_pop):
        if parent_process() is not None:
            self.misbehave()
        return path


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
    """One walk of the call list serves the cut, the costs and the warm-up
    manifest; each must equal its per-call derivation."""

    @staticmethod
    def reference_partition(calls, n_shards):
        """The cut, derived call by call with text keys (the oracle)."""
        from repro.workload.sharded import predicted_group_cost

        buckets, durations = {}, {}
        for position, spec in enumerate(calls):
            key = (str(spec.caller.prefix), str(spec.callee.prefix))
            buckets.setdefault(key, []).append(position)
            durations[key] = durations.get(key, 0.0) + spec.duration_s
        weights = {
            key: predicted_group_cost(len(at), durations[key])
            for key, at in buckets.items()
        }
        loads, members = [0.0] * n_shards, [[] for _ in range(n_shards)]
        for key, at in sorted(buckets.items(), key=lambda kv: (-weights[kv[0]], kv[0])):
            target = loads.index(min(loads))
            members[target].extend(at)
            loads[target] += weights[key]
        return [[calls[i] for i in sorted(at)] for at in members if at], weights

    def test_cut_costs_and_manifest(self, campaign_inputs):
        from repro.workload import predicted_shard_cost, warmup_manifest
        from repro.workload.sharded import _PairIndex

        _, calls = campaign_inputs
        index = _PairIndex.of(calls)
        # The manifest: the call list's unique pairs, sorted by text.
        texts = sorted({(str(s.caller.prefix), str(s.callee.prefix)) for s in calls})
        assert [(str(a), str(b)) for a, b in index.manifest()] == texts
        assert index.manifest() == warmup_manifest(calls)
        for n_shards in (2, 3, 5):
            slices, weights = self.reference_partition(calls, n_shards)
            shard_pairs = index.partition(n_shards)
            assert [index.slice_of(pairs, calls) for pairs in shard_pairs] == slices
            assert partition_calls(calls, n_shards) == slices
            assert sum(index.costs()) == sum(weights.values())
            for slice_ in slices:
                keys = {(str(s.caller.prefix), str(s.callee.prefix)) for s in slice_}
                assert predicted_shard_cost(slice_) == pytest.approx(
                    sum(weights[key] for key in keys)  # summed in another order
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
        # The runner ships no steering engine, and a pool is sized by its builder.
        with pytest.raises(TypeError):
            ShardedCampaignRunner(small_world.service, CampaignConfig(), steering=object())
        with pytest.raises(TypeError):
            CampaignWorkerPool(small_world.service)


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

    def test_stats_equal_the_engines_on_every_run(self, small_world, campaign_inputs):
        """Each run resolves over cold caches, as the bare engine does, so
        its cache counters are the engine's on the second run too."""
        _, calls = campaign_inputs
        config = CampaignConfig(seed=7)

        def counts(stats):
            return {**dataclasses.asdict(stats), "elapsed_s": None}

        bare = counts(CampaignEngine(small_world.service, config).run(calls).stats)
        runner = ShardedCampaignRunner(small_world.service, config, ShardPlan(n_shards=3))
        for _ in range(2):
            run = runner.run(calls)
            assert len(run.shards) == 3
            assert counts(run.stats) == bare

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
        assert pool.stats.world_bytes > 0


@pytest.mark.slow
class TestPersistentPool:
    """Pool lifecycle: reuse, salvage of shards that raised there, shutdown."""

    def test_reuse_across_runs_and_salvage(
        self, small_world, campaign_inputs, sequential_json
    ):
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
            # A shard that raised does not break the pool: the next run
            # is pooled through.
            clean = ShardedCampaignRunner(
                small_world.service, CampaignConfig(seed=7), plan, pool=pool
            ).run(calls)
            assert all(not o.in_process and o.attempts == 1 for o in clean.shards)
            assert clean.report.to_json() == sequential_json
        assert not pool.started
        with pytest.raises(RuntimeError, match="shut down"):
            pool.start()

    def test_a_started_pool_is_never_rewarmed(
        self, small_world, campaign_inputs, sequential_json
    ):
        """A second, different call list on a started pool: its workers keep
        the first manifest's caches and resolve the new pairs as they come."""
        from repro.workload import warmup_manifest

        _, calls = campaign_inputs
        population = UserPopulation.sample(small_world.topology, 60, seed=21)
        other = CallArrivalProcess(population, calls_per_user_day=2.0, seed=22).generate(days=1)
        assert set(warmup_manifest(other)) - set(warmup_manifest(calls))
        config = CampaignConfig(seed=7)
        other_json = CampaignEngine(small_world.service, config).run(other).report.to_json()
        plan = ShardPlan(n_workers=2)
        with CampaignWorkerPool(small_world.service, workers=2) as pool:
            first = ShardedCampaignRunner(small_world.service, config, plan, pool=pool).run(calls)
            assert first.report.to_json() == sequential_json
            warmed, dumped = pool.stats.warmed_pairs, pool.stats.world_dump_s
            assert warmed == len(warmup_manifest(calls))
            second = ShardedCampaignRunner(small_world.service, config, plan, pool=pool).run(other)
            assert all(not o.in_process and o.attempts == 1 for o in second.shards)
            assert second.report.to_json() == other_json
            assert pool.stats.warmed_pairs == warmed
            assert pool.stats.world_dump_s == dumped

    def test_context_manager_shuts_down_on_exception(self, small_world):
        pool = CampaignWorkerPool(small_world.service, workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            with pool:
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError, match="shut down"):
            pool.start()


@pytest.mark.slow
class TestRecovery:
    """A shard the pool could not finish runs once more in this process."""

    def test_worker_death_breaks_the_pool_not_the_run(
        self, small_world, campaign_inputs, sequential_json
    ):
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

    def test_a_pool_that_cannot_start_sends_every_shard_here(
        self, small_world, campaign_inputs, sequential_json
    ):
        """A shut-down pool still sizes the cut (``n_workers=None`` is its
        ``workers``), and every shard runs here at its first attempt."""
        _, calls = campaign_inputs
        pool = CampaignWorkerPool(small_world.service, workers=3)
        pool.shutdown()
        run = ShardedCampaignRunner(
            small_world.service, CampaignConfig(seed=7), pool=pool
        ).run(calls)
        assert len(run.shards) == 3  # a small campaign: one slice per worker
        assert all(o.in_process and o.attempts == 1 for o in run.shards)
        assert run.report.to_json() == sequential_json
        assert not pool.started and pool.stats.runs == 0

    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no-pool"])
    def test_raising_everywhere_carries_both_failures(
        self, small_world, campaign_inputs, pooled
    ):
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


def _tamper_pairs(run) -> None:
    pair = next(iter(run.aggregator.pairs.values()))
    pair.calls += 1


def _tamper_results(run) -> None:
    run.results = run.results.take(np.arange(len(run.results) - 1))


def _tamper_stats(run) -> None:
    run.stats.calls_total += 1


class TestReduceConservation:
    """The reduce step checks that no call was lost or counted twice."""

    @pytest.mark.parametrize(
        "tamper", [_tamper_pairs, _tamper_results, _tamper_stats], ids=lambda f: f.__name__
    )
    def test_tampered_shard_is_refused(
        self, small_world, campaign_inputs, monkeypatch, tamper
    ):
        from repro.workload import sharded

        execute = sharded._execute_shard

        def tampering_execute(resolver, task):
            run, outcome = execute(resolver, task)
            if task.index == 1:
                tamper(run)
            return run, outcome

        monkeypatch.setattr(sharded, "_execute_shard", tampering_execute)
        _, calls = campaign_inputs
        runner = ShardedCampaignRunner(
            small_world.service, CampaignConfig(seed=7), ShardPlan(n_shards=3)
        )
        with pytest.raises(RuntimeError, match=r"reduce lost or duplicated calls"):
            runner.run(calls)


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
    cut, with or without a path model; the sequential campaign is simply
    ``k = 1``.  (That a steered campaign's slices merge to its report is
    ``tests/steering/test_campaign.py::TestSteeredCampaign::
    test_sharded_report_byte_identical``: the runner ships no steering.)
    """

    @pytest.fixture(scope="class")
    def cells(self, small_world, campaign_inputs):
        """``cell -> (path_model, bare-engine JSON)``."""
        from repro.scenarios import ScenarioPathModel

        _, calls = campaign_inputs
        model = ScenarioPathModel(
            last_mile="geo_satellite",
            satellite_delay_ms=270.0,
            satellite_loss=0.012,
            pop_overload=(("LON", 2.0),),
        )
        cells = {}
        for cell, path_model in (("unsteered-plain", None), ("unsteered-model", model)):
            bare = CampaignEngine(
                small_world.service, CampaignConfig(seed=7), path_model=path_model
            ).run(calls)
            cells[cell] = (path_model, bare.report.to_json())
        return cells

    @pytest.mark.parametrize("cell", ["unsteered-plain", "unsteered-model"])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_k_shards_equal_engine(self, small_world, campaign_inputs, cells, k, cell):
        _, calls = campaign_inputs
        path_model, bare_json = cells[cell]
        run = ShardedCampaignRunner(
            small_world.service,
            CampaignConfig(seed=7),
            ShardPlan(n_shards=k),
            path_model=path_model,
        ).run(calls)
        assert run.report.to_json() == bare_json
        assert len(run.shards) == k
        assert all(o.in_process and o.attempts == 1 for o in run.shards)
        assert every_shard_has_every_phase(run)

    @pytest.mark.slow
    def test_pooled_with_a_path_model_equals_engine(self, small_world, campaign_inputs, cells):
        """A real 2-worker pool ships the GEO-satellite path model to its
        workers; the report is still the bare engine's, byte for byte."""
        _, calls = campaign_inputs
        path_model, bare_json = cells["unsteered-model"]
        assert bare_json != cells["unsteered-plain"][1]  # the model changes the report
        with CampaignWorkerPool(small_world.service, workers=2) as pool:
            run = ShardedCampaignRunner(
                small_world.service,
                CampaignConfig(seed=7),
                ShardPlan(n_workers=2, n_shards=4),
                path_model=path_model,
                pool=pool,
            ).run(calls)
        assert len(run.shards) == 4
        assert all(not o.in_process and o.attempts == 1 for o in run.shards)
        assert run.report.to_json() == bare_json

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
        assert every_shard_has_every_phase(run)


@pytest.fixture(scope="module")
def private_world():
    """A world these tests fault (and restore); the shared one stays clean."""
    return build_world("small", seed=42)


@pytest.fixture(scope="module")
def private_calls(private_world):
    population = UserPopulation.sample(private_world.topology, 120, seed=3)
    return CallArrivalProcess(population, calls_per_user_day=4.0, seed=4).generate(days=1)


class TestStalePool:
    """A pool serves the world as it was when the pool started.

    The failure this guards against is silent: a pool started before a
    fault would return the healthy world's report.
    """

    @pytest.mark.slow
    def test_runner_refuses_a_pool_started_before_the_fault(
        self, private_world, private_calls
    ):
        service = private_world.service
        with CampaignWorkerPool(service, workers=2) as pool:
            runner = ShardedCampaignRunner(
                service, CampaignConfig(), ShardPlan(n_workers=2), pool=pool
            )
            runner.run(private_calls)  # starts the pool: the healthy world is frozen
            before = converged_state(service)
            injector = FaultInjector(service)
            injector.apply(PopDown(time_s=0.0, pop="SIN"))
            try:
                assert converged_state(service) != before
                with pytest.raises(StalePoolError):
                    runner.run(private_calls)
            finally:
                injector.restore()
            # Restored is not un-faulted as far as a pool can tell.
            with pytest.raises(StalePoolError):
                runner.run(private_calls)

    @pytest.mark.slow
    def test_a_fresh_pool_on_a_faulted_world_gives_the_faulted_report(
        self, private_world, private_calls
    ):
        service = private_world.service
        config = CampaignConfig(seed=7)
        healthy = CampaignEngine(service, config).run(private_calls).report.to_json()
        injector = FaultInjector(service)
        injector.apply(PopDown(time_s=0.0, pop="SIN"))
        try:
            faulted = CampaignEngine(service, config).run(private_calls).report.to_json()
            with CampaignWorkerPool(service, workers=2) as pool:
                run = ShardedCampaignRunner(
                    service, config, ShardPlan(n_workers=2), pool=pool
                ).run(private_calls)
        finally:
            injector.restore()
        assert faulted != healthy
        assert all(not o.in_process for o in run.shards)
        assert run.report.to_json() == faulted

    def test_a_runner_without_a_pool_follows_a_fault(self, private_world, private_calls):
        """With no pool there is nothing frozen: each run resolves the world
        as it stands, so the run after a fault gives the faulted report."""
        service = private_world.service
        config = CampaignConfig(seed=7)
        runner = ShardedCampaignRunner(service, config)
        healthy = runner.run(private_calls).report.to_json()
        injector = FaultInjector(service)
        injector.apply(PopDown(time_s=0.0, pop="SIN"))
        try:
            after = runner.run(private_calls).report.to_json()
            faulted = CampaignEngine(service, config).run(private_calls).report.to_json()
        finally:
            injector.restore()
        assert after == faulted
        assert after != healthy

    def test_an_unstarted_pool_serves_whatever_it_will_freeze(self, private_world):
        service = private_world.service
        pool = CampaignWorkerPool(service, workers=2)
        assert not pool.started and pool.serves(service)
        injector = FaultInjector(service)
        injector.apply(LinkDown(time_s=0.0, a="SJS", b="HK"))
        try:
            assert pool.serves(service)
        finally:
            injector.restore()
            pool.shutdown()

    def test_a_frozen_service_matches_the_pool_built_from_it(self, private_world):
        frozen = private_world.service.freeze()
        assert converged_state(frozen) is None
        with CampaignWorkerPool(frozen, workers=2) as pool:
            pool.start()  # freezes (workers spawn on first submit: none here)
            assert pool.started and pool.serves(frozen)
            assert not pool.serves(private_world.service)
