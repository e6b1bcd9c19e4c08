"""Sharded campaigns: partition, execute, reduce.

The paper's evaluation aggregates two weeks of production traffic across
11 PoPs.  Every front door (``campaign.run``, ``steering.run``, the
scenarios and the matrix) runs its campaign in the calling process on a
plain :class:`~repro.workload.engine.CampaignEngine`: measured end to
end on a 2-vCPU host, a worker pool never paid for its spawn, world
shipping and warm-up there (DESIGN.md §8).  This module is the
workload-layer tool the benchmarks drive — :class:`ShardedCampaignRunner`
runs a campaign with the shard-and-reduce shape of a data-parallel
training loop:

1. **Partition** the call list into cost-balanced per-shard slices
   (:func:`partition_calls`) that never split a simulation group — all
   calls of one ``(src_prefix, dst_prefix)`` pair land on one shard, so
   per-pair path caches stay warm and batch draws keep their size.
   Slices are balanced by *predicted work* — one cache-miss resolve per
   unique pair plus per-call and per-slot simulate cost — not by call
   duration alone.
2. **Execute** each slice with a plain
   :class:`~repro.workload.engine.CampaignEngine` (:func:`_execute_shard`).
   *Where* is decided by one thing only — the ``pool=`` the runner was
   given.  With a :class:`CampaignWorkerPool`: spawn-safe workers that
   each receive the world exactly **once** (a compact
   :mod:`frozen <repro.vns.frozen>` snapshot), warm their path caches
   from the first run's :func:`warmup_manifest` when the pool starts,
   and keep both world and caches alive across shards *and across
   runs*; a started pool is never re-warmed.  Shards **stream** (more
   slices than workers, collected as they finish), so the resolve and
   simulate phases of different shards overlap.  Without a pool: the
   same slices run in this process over one resolver per run, one shard
   by default — the bare engine's campaign *is* the one-shard run.
3. **Reduce** by merging the shards'
   :class:`~repro.workload.report.CampaignAggregator`\\ s and
   :class:`~repro.workload.engine.CampaignStats` into one
   :class:`ShardedCampaignRun`.

**Determinism contract.**  Simulation draws are keyed by ``(campaign
seed, group signature)`` (:func:`~repro.workload.engine.group_digest`)
and every float in a report summary is permutation-invariant, so a run
is *byte-identical* in :meth:`CampaignReport.to_json` to a bare
``CampaignEngine`` over the whole list under the same seed — for any
pool, worker count, shard count, scheduling order, salvage or cache
warmth.  Nothing shard-local feeds the simulation draws.  An in-process
run's :class:`~repro.workload.engine.CampaignStats` equal the bare
engine's too (``elapsed_s`` aside): each run starts from cold caches.
A pooled run's cache counters measure how warm its workers were, and
are outside the contract.

**Robustness.**  A shard runs where it was sent.  If the pool cannot
finish it — its worker died, the pool was already broken, or the shard
raised there — it runs once more in this process; if it raises here
too, :class:`ShardExecutionError` carries both failures.  There is no
retry budget: a shard is a pure function of its inputs, so one that
raised would raise again.  A pool that cannot start sends every shard
here.

**Where the costs are recorded.**  Once: each :class:`ShardOutcome`'s
``phase_s`` carries the engine phases (:data:`PHASES`) and, as separate
columns, the fan-out's own costs (:data:`OVERHEAD_COLUMNS`):
``warmup_s`` (cache pre-warming), ``world_ship_s`` (world unpickle in
the worker) and ``queue_wait_s`` (time the shard sat in the work
queue).  The pool's own costs — spawn, world dump and size, warmed
pairs — are its :class:`PoolStats` (``pool.stats``).  The ``workload``
bench row and ``bench_e2e`` read these two records instead of letting
the overheads hide inside the simulate phase.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from repro import perf
from repro.dataplane.transmit import SLOT_S
from repro.net.addressing import Prefix
from repro.vns.frozen import is_frozen
from repro.vns.service import VideoNetworkService
from repro.workload.arrivals import CallSpec
from repro.workload.engine import (
    CallResult,
    CallResults,
    CampaignConfig,
    CampaignEngine,
    CampaignRun,
    CampaignStats,
    PathModel,
    PathResolver,
)
from repro.workload.report import CampaignAggregator

#: The engine phases whose per-shard timings shards report.
PHASES = ("resolve", "simulate", "aggregate")

#: Fan-out overhead columns reported next to the engine phases in
#: :attr:`ShardOutcome.phase_s` (wall-clock only; their ``cpu_s`` is 0).
OVERHEAD_COLUMNS = ("warmup_s", "world_ship_s", "queue_wait_s")

# Predicted-work model for shard balancing, in slot-equivalents (one
# unit = simulating one ``SLOT_S`` slot).  Calibrated from the ``workload`` bench
# row on the medium world: a cold resolve_pair miss costs ~0.44 ms, a
# simulated slot ~6.7 us, and per-call fixed work ~0.03 ms.
COST_RESOLVE_MISS = 65.0
COST_PER_CALL = 4.5

#: Predicted campaign cost (slot-equivalents, ~6.7 us each) below which
#: the auto shard count stays at one slice per worker: oversplitting a
#: small campaign pays more in per-shard fixed overhead (engine set-up,
#: result pickling) than phase overlap recovers.
STREAM_MIN_COST = 200_000.0


class ShardExecutionError(RuntimeError):
    """A shard raised in this process, after failing on the pool if it ran there.

    Carries the failure log (the pool's failure, then this process's) so
    the caller can see what each side saw (``str(exc)`` includes it).
    """

    def __init__(self, shard_index: int, failures: list[str]) -> None:
        self.shard_index = shard_index
        self.failures = list(failures)
        joined = "; ".join(failures)
        super().__init__(f"shard {shard_index} failed permanently: {joined}")


class StalePoolError(RuntimeError):
    """The pool's workers hold a world its service has since left.

    A pool freezes the service when it starts; a fault (or a repair)
    applied afterwards is invisible to its workers, so running on it
    would return the earlier world's report.  Start a new pool on the
    service as it stands now.
    """


def converged_state(service: VideoNetworkService) -> int | None:
    """What a pool remembers of the world it froze.

    The BGP engine's cumulative delivered-message count: every
    control-plane change (link, PoP, session; down or up) delivers
    messages, so the count moves whenever the forwarding state may have.
    A frozen service has no engine and no state to leave: ``None``.
    """
    return None if is_frozen(service) else service.network.engine.delivered


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """How to cut and execute a campaign.

    Parameters
    ----------
    n_workers:
        The worker count a pool's shard-count default is sized for.
        ``None`` (the default) means the pool's ``workers``.  It never
        decides *where* shards run: that is the runner's ``pool=``.
    n_shards:
        Number of slices.  ``None`` defaults, on a pool, to ``2 ×
        workers`` (so shards stream through the queue and phases of
        different shards overlap) — or to one slice per worker when
        there is one worker or the campaign's predicted cost is under
        :data:`STREAM_MIN_COST` (oversplitting tiny campaigns costs
        more than streaming recovers); with no pool it defaults to one
        in-process shard.
    keep_results:
        Return the per-call view (``run.results``, a
        :class:`~repro.workload.engine.CallResults` over result columns).
        Switching this off saves the dominant share of worker→parent
        transfer at population scale; the report and stats are complete
        either way.

    What a shard the pool could not finish does is not configurable: it
    runs once more in this process (see the module docstring).
    """

    n_workers: int | None = None
    n_shards: int | None = None
    keep_results: bool = True

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers!r}")
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards!r}")


@dataclass(slots=True)
class ShardTask:
    """One shard's work order (pickled to a worker).

    ``submitted_at`` is stamped (``time.time()``) just before the task
    enters the pool queue so the worker can report ``queue_wait_s``.
    """

    index: int
    calls: list[CallSpec]
    config: CampaignConfig
    keep_results: bool = True
    #: Optional :class:`~repro.workload.engine.PathModel` (picklable,
    #: pure), applied by every worker at simulate time — never written
    #: into the shared path caches.
    path_model: "PathModel | None" = None
    submitted_at: float | None = None


@dataclass(slots=True)
class ShardOutcome:
    """Observability record for one executed shard (it travels with the run)."""

    index: int
    n_calls: int
    #: 1, or 2 for a shard the pool could not finish and this process
    #: ran again (``failures`` then holds the pool's failure).
    attempts: int
    #: ``True`` for a shard run here; a pool worker clears it.
    in_process: bool
    elapsed_s: float
    #: ``phase -> {"total_s": wall, "cpu_s": cpu}`` for every one of
    #: :data:`PHASES`, from the shard's perf timers (CPU seconds are what
    #: speedup is judged on: they are immune to core contention on
    #: oversubscribed hosts).  Beside the engine phases this carries the
    #: fan-out's own overheads (:data:`OVERHEAD_COLUMNS`): ``warmup_s`` /
    #: ``world_ship_s`` appear once per worker (on its first completed
    #: shard), ``queue_wait_s`` on every pooled shard.
    phase_s: dict[str, dict[str, float]]
    failures: list[str] = field(default_factory=list)


@dataclass(slots=True)
class PoolStats:
    """Parent-side accounting for one :class:`CampaignWorkerPool`."""

    workers: int
    #: Bytes of the world payload shipped to each worker.
    world_bytes: int = 0
    #: Parent-side seconds spent pickling the world payload.
    world_dump_s: float = 0.0
    #: Seconds from :meth:`CampaignWorkerPool.start` entry to executor up.
    setup_s: float = 0.0
    #: Unique prefix pairs of the manifest the workers warmed at start.
    warmed_pairs: int = 0
    #: Campaign runs served (incremented by the runner).
    runs: int = 0


@dataclass(slots=True)
class ShardedCampaignRun(CampaignRun):
    """A :class:`CampaignRun` plus the shard fan-out's observability.

    ``stats.elapsed_s`` is the reducer's wall clock; per-shard busy time
    and the fan-out's overheads live in each :class:`ShardOutcome`'s
    ``phase_s``, the pool's own costs in its ``pool.stats``.  On a pool,
    the ``stats`` cache counters measure how warm the workers were, not
    the campaign: they are outside the determinism contract.
    """

    shards: list[ShardOutcome] = field(default_factory=list)

    def simulate_critical_path_s(self, *, cpu: bool = True) -> float:
        """The slowest shard's simulate-phase seconds.

        The fan-out's lower bound on simulate wall time given enough
        cores; the ``workload`` bench row reports sequential simulate
        time divided by this as the speedup per worker count.
        """
        kind = "cpu_s" if cpu else "total_s"
        return max(
            (outcome.phase_s.get("simulate", {}).get(kind, 0.0) for outcome in self.shards),
            default=0.0,
        )

    def overhead_s(self, column: str) -> float:
        """Total wall seconds of one :data:`OVERHEAD_COLUMNS` column."""
        return sum(
            outcome.phase_s.get(column, {}).get("total_s", 0.0)
            for outcome in self.shards
        )


# --------------------------------------------------------------------- #
# partitioning and warmup manifests
# --------------------------------------------------------------------- #


def predicted_group_cost(n_calls: int, total_duration_s: float) -> float:
    """Predicted work of one pair group, in slot-equivalents.

    One cache-miss resolve per unique pair (``COST_RESOLVE_MISS``), a
    fixed per-call cost (``COST_PER_CALL``), and one unit per simulated
    slot (``duration / SLOT_S``).  This — not raw duration — is what
    :func:`partition_calls` balances; duration-only balancing left the
    2-worker medium run split 4.13 s / 2.28 s because resolve misses
    concentrate on whichever shard drew the most *unique* pairs.
    """
    return COST_RESOLVE_MISS + COST_PER_CALL * n_calls + total_duration_s / SLOT_S


@dataclass(slots=True)
class _PairIndex:
    """A call list grouped by ``(src, dst)`` prefix pair.

    One walk of the calls and one rendering of each distinct pair; the
    partition, the predicted costs and the warm-up manifest are all read
    off it.  Pairs are in first-seen order and every
    per-pair list is parallel to ``keys``.
    """

    #: The pair as text — the deterministic tie-break and sort key.
    keys: list[tuple[str, str]]
    #: The pair as the first call's prefix objects (what workers resolve).
    prefixes: list[tuple[Prefix, Prefix]]
    #: Positions of the pair's calls in the call list, ascending.
    positions: list[list[int]]
    #: Summed call durations, added in call order.
    durations: list[float]

    @classmethod
    def of(cls, calls: list[CallSpec]) -> "_PairIndex":
        slot_of: dict[tuple[Prefix, Prefix], int] = {}
        keys, prefixes, positions, durations = [], [], [], []
        for position, spec in enumerate(calls):
            pair = (spec.caller.prefix, spec.callee.prefix)
            slot = slot_of.get(pair)
            if slot is None:
                slot = slot_of[pair] = len(keys)
                keys.append((str(pair[0]), str(pair[1])))
                prefixes.append(pair)
                positions.append([])
                durations.append(0.0)
            positions[slot].append(position)
            durations[slot] += spec.duration_s
        return cls(keys, prefixes, positions, durations)

    def costs(self) -> list[float]:
        """:func:`predicted_group_cost` of each pair."""
        return [
            predicted_group_cost(len(positions), duration)
            for positions, duration in zip(self.positions, self.durations)
        ]

    def partition(self, n_shards: int) -> list[list[int]]:
        """The pairs of each shard: at most ``n_shards`` non-empty lists.

        Greedy, largest predicted cost first, ties broken by the pair's
        text; a shard's calls are its pairs' positions, sorted.
        """
        if n_shards <= 1:
            return [list(range(len(self.keys)))] if self.keys else []
        costs = self.costs()
        loads = [0.0] * n_shards
        members: list[list[int]] = [[] for _ in range(n_shards)]
        for pair in sorted(range(len(costs)), key=lambda i: (-costs[i], self.keys[i])):
            target = loads.index(min(loads))
            members[target].append(pair)
            loads[target] += costs[pair]
        return [pairs for pairs in members if pairs]

    def slice_of(self, pairs: list[int], calls: list[CallSpec]) -> list[CallSpec]:
        """The calls of ``pairs``, in original call order."""
        positions = sorted(p for pair in pairs for p in self.positions[pair])
        return [calls[position] for position in positions]

    def manifest(self) -> list[tuple[Prefix, Prefix]]:
        """Every pair as prefix objects, sorted by text."""
        ordered = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        return [self.prefixes[pair] for pair in ordered]


def partition_calls(calls: list[CallSpec], n_shards: int) -> list[list[CallSpec]]:
    """Cut ``calls`` into at most ``n_shards`` group-preserving slices.

    All calls of one ``(src_prefix, dst_prefix)`` pair stay together —
    a simulation group is a refinement of the pair, so no batch is ever
    split and the sequential draws are reproduced exactly.  Pairs are
    balanced greedily by :func:`predicted_group_cost` (largest first,
    deterministic tie-break), and each slice preserves the original call
    order.  Slices are never empty; fewer pairs than shards yields fewer
    slices.
    """
    if n_shards <= 1 or len(calls) <= 1:
        return [list(calls)] if calls else []
    index = _PairIndex.of(calls)
    return [index.slice_of(pairs, calls) for pairs in index.partition(n_shards)]


def predicted_shard_cost(calls: list[CallSpec]) -> float:
    """Predicted work of one shard slice (sum over its pair groups)."""
    return sum(_PairIndex.of(calls).costs())


def warmup_manifest(calls: list[CallSpec]) -> list[tuple[Prefix, Prefix]]:
    """The campaign's unique ``(src, dst)`` prefix pairs, sorted.

    This is what workers pre-resolve before the first shard lands: the
    resolve phase's only super-linear cost is the per-pair cache miss,
    so covering the manifest up front turns shard resolves into pure
    cache hits.
    """
    return _PairIndex.of(calls).manifest()


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #

#: The worker's resolver over its installed world, created once per
#: process by :func:`_init_worker` and handed to every engine the worker
#: runs — path caches stay warm across shards *and* runs.
_WORKER_RESOLVER: PathResolver | None = None
#: Install-time costs, reported to the parent once (first shard result).
_WORKER_INIT: dict = {"world_ship_s": 0.0, "warmup_s": 0.0, "reported": True}


def _init_worker(
    blob: bytes, manifest: list[tuple[Prefix, Prefix]] | None
) -> None:
    """Install the world (and optionally warm caches) once per worker."""
    global _WORKER_RESOLVER, _WORKER_INIT
    started = time.perf_counter()
    resolver = PathResolver(pickle.loads(blob))
    ship_s = time.perf_counter() - started
    warm_s = 0.0
    if manifest:
        started = time.perf_counter()
        resolver.warm_pairs(manifest)
        warm_s = time.perf_counter() - started
    _WORKER_RESOLVER = resolver
    _WORKER_INIT = {"world_ship_s": ship_s, "warmup_s": warm_s, "reported": False}


def _execute_shard(
    resolver: PathResolver, task: ShardTask
) -> tuple[CampaignRun, ShardOutcome]:
    """Run one shard over ``resolver``'s service (in a worker or in-process).

    Returns the shard's run and its :class:`ShardOutcome` (one attempt,
    in process).  Reads the engine's :data:`PHASES` timers off a delta
    against the process's registry and leaves the registry exactly as
    found when perf was off (:func:`repro.perf.counters.restore`), so
    in-process shards do not leak timings into a caller that never
    enabled instrumentation.  The engine resolves through ``resolver``,
    whose caches outlive it and so stay warm for the next shard.
    """
    started = time.perf_counter()
    was_enabled = perf.is_enabled()
    before = perf.snapshot()
    perf.enable()
    try:
        engine = CampaignEngine(resolver.service, task.config, path_model=task.path_model)
        engine.resolver = resolver
        run = engine.run(task.calls)
    finally:
        after = perf.snapshot()
        if not was_enabled:
            perf.restore(before)
            perf.disable()
    timers = after.diff(before).timers
    phase_s = {}
    for phase in PHASES:
        entry = timers[f"workload.{phase}"]  # the engine times every phase
        phase_s[phase] = {"total_s": entry["total_s"], "cpu_s": entry["cpu_s"]}
    if not task.keep_results:
        run.results = []  # dropped here, before the result is pickled
    return run, ShardOutcome(
        index=task.index,
        n_calls=len(task.calls),
        attempts=1,
        in_process=True,
        elapsed_s=time.perf_counter() - started,
        phase_s=phase_s,
    )


def _run_shard_worker(task: ShardTask) -> tuple[CampaignRun, ShardOutcome]:
    if _WORKER_RESOLVER is None:
        raise RuntimeError("shard worker used before _init_worker installed a world")
    picked_up = time.time()
    run, outcome = _execute_shard(_WORKER_RESOLVER, task)
    outcome.in_process = False
    # The OVERHEAD_COLUMNS: wall clock spent installing or waiting, no CPU.
    if not _WORKER_INIT.get("reported", True):
        _WORKER_INIT["reported"] = True
        for column in ("warmup_s", "world_ship_s"):
            outcome.phase_s[column] = {"total_s": _WORKER_INIT[column], "cpu_s": 0.0}
    if task.submitted_at is not None:
        queue_wait_s = max(0.0, picked_up - task.submitted_at)
        outcome.phase_s["queue_wait_s"] = {"total_s": queue_wait_s, "cpu_s": 0.0}
    return run, outcome


def _run_here(
    resolver: PathResolver, task: ShardTask, failures: Sequence[str] = ()
) -> tuple[CampaignRun, ShardOutcome]:
    """Run one shard in this process: its only run, or its last after a pool failure."""
    failures = list(failures)
    try:
        run, outcome = _execute_shard(resolver, task)
    except Exception as exc:  # noqa: BLE001 - reported with the pool's failure
        failures.append(f"in-process: {type(exc).__name__}: {exc}")
        raise ShardExecutionError(task.index, failures) from exc
    outcome.attempts += len(failures)
    outcome.failures = failures
    return run, outcome


# --------------------------------------------------------------------- #
# the persistent pool
# --------------------------------------------------------------------- #


class CampaignWorkerPool:
    """A persistent pool of campaign workers with the world pre-installed.

    Create one, run many campaigns through it (via
    ``ShardedCampaignRunner(pool=...)``), and every run after the first
    skips the spawn, the world shipping and the cache warm-up.  The pool
    is lazy: workers spawn on :meth:`start` (the runner's first run
    starts it with that run's :func:`warmup_manifest`; a submit starts it
    bare), each installing the world and warming its caches exactly once
    via :func:`_init_worker`.  A started pool is never re-warmed.

    Parameters
    ----------
    service:
        The live world.  Workers receive
        :meth:`service.freeze() <repro.vns.service.VideoNetworkService.freeze>`
        — a read-only snapshot a fraction of the full pickle's size —
        taken when the pool starts.
    workers:
        Pool size.
    """

    def __init__(self, service: VideoNetworkService, *, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self._service = service
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        #: :func:`converged_state` of the service when it was frozen.
        self._frozen_at: int | None = None
        self.workers = workers
        self.stats = PoolStats(workers=workers)

    # ------------------------------------------------------------------ #

    @property
    def started(self) -> bool:
        return self._executor is not None

    def serves(self, service: VideoNetworkService) -> bool:
        """Whether the workers hold (or will freeze) ``service`` as it is now."""
        return not self.started or self._frozen_at == converged_state(service)

    def _frozen_world(self) -> bytes:
        """The pickled frozen snapshot, with dump cost booked to stats."""
        started = time.perf_counter()
        self._frozen_at = converged_state(self._service)
        blob = pickle.dumps(self._service.freeze(), protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.world_dump_s += time.perf_counter() - started
        self.stats.world_bytes = len(blob)
        return blob

    def start(
        self, warm_pairs: list[tuple[Prefix, Prefix]] | None = None
    ) -> "CampaignWorkerPool":
        """Create the executor (idempotent); workers spawn on demand.

        ``warm_pairs`` rides in the init payload so each worker warms
        its caches right after installing the world — no extra IPC.  A
        started pool ignores it.
        """
        if self._closed:
            raise RuntimeError("pool has been shut down")
        if self._executor is not None:
            return self
        started = time.perf_counter()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=_init_worker,
            initargs=(self._frozen_world(), list(warm_pairs) if warm_pairs else None),
        )
        self.stats.setup_s += time.perf_counter() - started
        self.stats.warmed_pairs = len(warm_pairs) if warm_pairs else 0
        return self

    def submit_task(self, task: ShardTask) -> Future:
        """Submit one shard (starting the pool if needed)."""
        if self._executor is None:
            self.start()
        assert self._executor is not None
        return self._executor.submit(_run_shard_worker, task)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; the pool cannot be restarted afterwards."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "CampaignWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)


# --------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------- #


class ShardedCampaignRunner:
    """Runs a campaign — partition, execute, reduce — on a pool or here.

    Parameters
    ----------
    service:
        The live world.  In-process shards (and salvage) run on it over
        a :class:`~repro.workload.engine.PathResolver` built for each
        run, so a run after a fault sees the faulted world.
    config:
        The campaign's :class:`CampaignConfig` (defaults to seed 0).
    plan:
        The :class:`ShardPlan` (how to cut).
    path_model:
        Optional :class:`~repro.workload.engine.PathModel`, shipped to
        every shard and applied at simulate time only.  Must be pure and
        picklable; the reduced report stays byte-identical to a bare
        engine run with the same model.
    pool:
        The :class:`CampaignWorkerPool` to run on; sharing one amortises
        worker spawn, world shipping and cache warmup across every run.
        A run on a pool not yet started starts it, its workers warming
        that run's manifest.  Without one the shards run in this
        process — one shard unless ``plan.n_shards`` says otherwise,
        which is the sequential campaign.  Nothing else decides where
        shards run.
    """

    def __init__(
        self,
        service: VideoNetworkService,
        config: CampaignConfig | None = None,
        plan: ShardPlan | None = None,
        *,
        path_model: "PathModel | None" = None,
        pool: CampaignWorkerPool | None = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else CampaignConfig()
        self.plan = plan if plan is not None else ShardPlan()
        self.path_model = path_model
        self.pool = pool

    # ------------------------------------------------------------------ #

    def run(self, calls: list[CallSpec]) -> ShardedCampaignRun:
        """Run ``calls``; the report is byte-identical to
        ``CampaignEngine(service, config).run(calls).report``.

        Raises
        ------
        StalePoolError
            If the pool froze the service before its last control-plane
            change (its workers would simulate the earlier world).
        """
        started = time.perf_counter()
        pool = self.pool
        if pool is not None and not pool.serves(self.service):
            raise StalePoolError(
                "the pool froze this service before its last control-plane "
                "change; start a new pool on the service as it stands"
            )
        n_shards = self.plan.n_shards
        if pool is None and (n_shards is None or n_shards == 1):
            # The sequential campaign: nothing to cut, nothing to warm.
            index = None
            slices = [list(calls)] if calls else []
        else:
            # One walk of the call list serves the shard count, the cut
            # and (on a pool not yet started) the warm-up manifest.
            index = _PairIndex.of(calls)
            if n_shards is None:
                # On a pool: twice as many slices as workers, so a
                # finished worker always has another shard to pull and
                # phases of different shards overlap — for campaigns big
                # enough to amortise the per-shard fixed costs.
                workers = self.plan.n_workers or pool.workers
                streamed = workers > 1 and sum(index.costs()) >= STREAM_MIN_COST
                n_shards = 2 * workers if streamed else workers
            slices = [index.slice_of(pairs, calls) for pairs in index.partition(n_shards)]
        tasks = [
            ShardTask(
                index=shard,
                calls=slice_,
                config=self.config,
                keep_results=self.plan.keep_results,
                path_model=self.path_model,
            )
            for shard, slice_ in enumerate(slices)
        ]
        resolver = PathResolver(self.service)
        if pool is not None and tasks:
            executed = self._run_pool(pool, tasks, index, resolver)
        else:
            executed = [_run_here(resolver, task) for task in tasks]
        return self._reduce(executed, time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # on a pool
    # ------------------------------------------------------------------ #

    def _run_pool(
        self,
        pool: CampaignWorkerPool,
        tasks: list[ShardTask],
        index: _PairIndex,
        resolver: PathResolver,
    ) -> list[tuple[CampaignRun, ShardOutcome]]:
        """Start the pool if it is not, then stream the shards through it.

        Workers warm the manifest of the run that starts the pool; a
        started pool keeps what it warmed.  Warmth never changes a
        report — only when resolution work happens.
        """
        if not pool.started:
            try:
                pool.start(warm_pairs=index.manifest())
            except Exception:  # noqa: BLE001 - pool genuinely unavailable
                return [_run_here(resolver, task) for task in tasks]
        pool.stats.runs += 1
        # Shards stream: with more shards than workers, a worker that
        # finishes its slice immediately pulls the next one off the
        # queue, so the resolve phase of one shard overlaps the simulate
        # phase of another.  A shard whose worker died, that a broken
        # pool refused, or that raised on the pool runs once more here; a
        # shard that finished before its pool broke keeps its pool result.
        pending: dict[Future, ShardTask] = {}
        for task in tasks:
            task.submitted_at = time.time()
            try:
                future = pool.submit_task(task)
            except RuntimeError as exc:  # the pool is already broken (or shut down)
                future = Future()
                future.set_exception(exc)
            pending[future] = task
        executed = []
        for future in as_completed(pending):
            task = pending[future]
            try:
                executed.append(future.result())
            except Exception as exc:  # noqa: BLE001 - worker died or shard raised
                failure = f"pool: {type(exc).__name__}: {exc}"
                executed.append(_run_here(resolver, task, [failure]))
        return executed

    # ------------------------------------------------------------------ #
    # reduce
    # ------------------------------------------------------------------ #

    def _reduce(
        self, executed: list[tuple[CampaignRun, ShardOutcome]], wall_s: float
    ) -> ShardedCampaignRun:
        executed.sort(key=lambda shard: shard[1].index)
        aggregator = CampaignAggregator()
        stats = CampaignStats()
        kept = []
        outcomes = []
        for run, outcome in executed:
            aggregator.merge(run.aggregator)
            stats.merge(run.stats)
            if len(run.results):
                kept.append(run.results)
            outcomes.append(outcome)
        stats.elapsed_s = wall_s
        # Per-call results: the shards' columns end to end, read in call-id
        # order (no per-call object is built to sort them).
        results: Sequence[CallResult] = []
        if kept:
            results = CallResults.concat(kept)
            call_ids = np.fromiter(
                (spec.call_id for spec in results.specs), np.int64, len(results)
            )
            results = results.take(np.argsort(call_ids, kind="stable"))
        # Each call is run, paired and listed once: an ``if``, as ``-O`` strips asserts.
        paired = sum(pair.calls for pair in aggregator.pairs.values())
        listed = len(results) if self.plan.keep_results else stats.calls_resolved
        cut = sum(outcome.n_calls for outcome in outcomes)
        if not (paired == listed == stats.calls_resolved and cut == stats.calls_total):
            raise RuntimeError(f"reduce lost or duplicated calls: {paired} paired, {listed} listed, "
                               f"{stats.calls_resolved} resolved; {cut} cut, {stats.calls_total} run")
        return ShardedCampaignRun(
            results=results,
            stats=stats,
            aggregator=aggregator,
            seed=self.config.seed,
            shards=outcomes,
        )
