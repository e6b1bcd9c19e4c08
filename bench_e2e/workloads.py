"""The four workloads.  Each returns what it measured; ``runner`` scores it.

Closed loop, one driver process: a unit starts when the previous one has
returned.  The only other processes are ``cold_medium``'s subprocess
(one at a time) and ``sharded_day``'s pool workers.

A workload's work is a function of ``(--seed, --seconds)`` only, never
of the clock, so every count repeats exactly on any host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_e2e import host, pipeline
from bench_e2e.host import Calibration
from bench_e2e.tracing import Tracer


@dataclass(frozen=True, slots=True)
class Sizes:
    """World scales and campaign sizes (``--quick`` swaps in the small set)."""

    cold_scale: str
    cold_users: int
    day_scale: str
    day_users: int
    warmup_calls: int
    churn_scale: str
    #: Fault elements per kind (links, PoPs, upstreams) at most.
    churn_each: int
    #: Calibration slice pairs per sample (~30 ms a pair).
    cal_slices: int


#: cold_medium pays a MEDIUM world per subprocess (that is its point);
#: the other three build a SMALL one so that the driver's 92 runs fit its
#: time cap on a slow day — the campaign (1,200 users x 9 calls/day,
#: ~10.8k calls) is the BENCH_workload MEDIUM campaign either way, and
#: its cost does not depend on the world's scale.
FULL = Sizes("medium", 1200, "small", 1200, 2000, "small", 4, 8)
QUICK = Sizes("small", 150, "small", 150, 200, "small", 1, 2)

#: Seconds one unit takes on the reference host; ``--seconds`` divided
#: by it gives the repeat count.
NOMINAL_CAMPAIGN_RUN_S = 2.7
NOMINAL_SHARDED_RUN_S = 1.3
NOMINAL_FAULT_KIND_S = 2.5  # one element of each kind, down and up


@dataclass(slots=True)
class Context:
    """What a workload is handed."""

    tracer: Tracer
    calibration: Calibration
    seed: int
    seconds: float
    sizes: Sizes
    quick: bool
    scratch: Path
    counts: dict = field(default_factory=dict)
    setup_wall_s: float | None = None
    #: When the traced unit began: after set-up and after the untraced
    #: reference unit (the per-layer table of the timed region starts here).
    traced_from: float = 0.0

    def repeats(self, nominal_s: float, minimum: int) -> int:
        if self.quick:
            return 2
        return max(minimum, round(self.seconds / nominal_s))

    def begin_timed(self) -> None:
        """End of set-up: everything before this call is ``setup_s``."""
        self.tracer.call("host.calibrate", self.calibration.sample, "setup")
        self.traced_from = time.perf_counter()
        self.setup_wall_s = self.traced_from - self.tracer.started
        self.sample_timed()

    def sample_timed(self) -> None:
        self.tracer.call("host.calibrate", self.calibration.sample, "timed")

    def untraced(self, fn):
        """Run ``fn`` with tracing and perf probes off; (result, seconds).

        The traced run's reference unit: the same work as one timed unit
        of the untraced run, so ``trace.overhead_ratio`` has its base.
        """
        from repro import perf

        def paused():
            self.tracer.enabled = False
            perf.disable()
            try:
                return fn()
            finally:
                perf.enable()
                self.tracer.enabled = True

        result = self.tracer.call("host.untraced_reference", paused)
        self.traced_from = time.perf_counter()
        return result


@dataclass(slots=True)
class Measured:
    """What one workload run observed."""

    #: Wall seconds of each timed unit, in order.
    unit_walls: list[float]
    #: Work items the timed units completed (calls, fault events).
    ops: int
    attempted: int
    failed: int
    #: Human-readable failed checks; any entry makes the run incorrect.
    failures: list[str]
    #: Simulated-statistic digests: equal across hosts and repeats.
    invariants: dict[str, str]
    peak_rss_mb: float
    workers: int = 0
    #: ``traced unit wall / untraced reference wall`` (traced runs only).
    overhead_ratio: float = 0.0


def prepare_world(ctx: Context, scale: str):
    """Import the program and build the world (the in-process set-up)."""
    ctx.tracer.call("import.repro", import_program)
    if ctx.tracer.enabled:
        from repro import perf

        perf.reset()
        perf.enable()
    return pipeline.build_service(ctx.tracer, scale, ctx.counts)


# --------------------------------------------------------------------- #
# campaign_day
# --------------------------------------------------------------------- #


def campaign_day(ctx: Context) -> Measured:
    tracer, seed = ctx.tracer, ctx.seed
    service = prepare_world(ctx, ctx.sizes.day_scale)
    calls = pipeline.generate_calls(tracer, service, ctx.sizes.day_users, seed)
    # Untimed warm-up: numpy/scipy first-call costs, not path caches
    # (every timed repeat runs a fresh engine).
    pipeline.run_campaign(
        tracer, service, calls[: ctx.sizes.warmup_calls], seed, "workload.run_warmup"
    )
    ctx.begin_timed()

    # Keep each run's report and stats only: holding every repeat's
    # per-call results would make peak RSS grow with the repeat count.
    failures: list[str] = []
    walls: list[float] = []
    reports: set[str] = set()
    attempted = failed = resolved = 0

    def note(run) -> None:
        nonlocal attempted, failed, resolved
        reports.add(run.report.to_json())
        attempted += run.stats.calls_total
        failed += run.stats.calls_failed
        resolved = run.stats.calls_resolved

    overhead = 0.0
    if tracer.enabled:
        (reference, ref_wall), _ = ctx.untraced(
            lambda: pipeline.run_campaign(tracer, service, calls, seed, "-")
        )
        note(reference)
        del reference
        run, wall = pipeline.run_campaign(tracer, service, calls, seed, "workload.run_cold")
        note(run)
        walls = [wall]
        overhead = wall / ref_wall
        failures += pipeline.campaign_probes(tracer, service, calls, seed, run, ctx.counts)
        pipeline.freeze_probe(tracer, service, ctx.counts)
    else:
        for _ in range(ctx.repeats(NOMINAL_CAMPAIGN_RUN_S, minimum=3)):
            run, wall = pipeline.run_campaign(
                tracer, service, calls, seed, "workload.run_cold"
            )
            note(run)
            del run
            walls.append(wall)
            ctx.sample_timed()

    if len(reports) != 1:
        failures.append("campaign report differs between repeats")
    return Measured(
        unit_walls=walls,
        ops=resolved * len(walls),
        attempted=attempted,
        failed=failed,
        failures=failures,
        invariants={"report_sha256": pipeline.sha256(min(reports))},
        peak_rss_mb=host.peak_rss_mb(),
        overhead_ratio=overhead,
    )


# --------------------------------------------------------------------- #
# sharded_day
# --------------------------------------------------------------------- #


def sharded_day(ctx: Context) -> Measured:
    tracer, seed, counts = ctx.tracer, ctx.seed, ctx.counts
    service = prepare_world(ctx, ctx.sizes.day_scale)
    from repro.workload import (
        CampaignConfig,
        CampaignWorkerPool,
        ShardedCampaignRunner,
        ShardPlan,
        partition_calls,
        predicted_shard_cost,
    )
    from repro.workload.sharded import PHASES

    calls = pipeline.generate_calls(tracer, service, ctx.sizes.day_users, seed)
    sequential, _ = pipeline.run_campaign(tracer, service, calls, seed, "workload.run_cold")
    reference = sequential.report.to_json()
    failures: list[str] = []
    if tracer.enabled:
        failures += pipeline.campaign_probes(
            tracer, service, calls, seed, sequential, counts
        )
        pipeline.freeze_probe(tracer, service, counts)

    workers = min(2, os.cpu_count() or 1)
    config = CampaignConfig(seed=seed)
    plan = ShardPlan(n_workers=workers, keep_results=False)
    failed = sequential.stats.calls_failed
    attempted = sequential.stats.calls_total
    retries = 0

    def sharded_run(pool):
        return ShardedCampaignRunner(service, config, plan, pool=pool).run(calls)

    def check(run, label: str) -> None:
        nonlocal failed, attempted, retries
        attempted += run.stats.calls_total
        failed += run.stats.calls_failed
        if run.report.to_json() != reference:
            failed += 1
            failures.append(f"{label}: sharded report differs from sequential")
        for outcome in run.shards:
            retries += outcome.attempts - 1
            if outcome.attempts != 1 or (outcome.in_process and workers > 1):
                failed += 1
                failures.append(
                    f"{label}: shard {outcome.index} took {outcome.attempts} "
                    f"attempts (in_process={outcome.in_process})"
                )

    walls: list[float] = []
    overhead = 0.0
    pool = CampaignWorkerPool(service, workers=workers)
    try:
        # Pool construct -> first report is part of set-up: it is paid
        # once per pool, and 7-9 s +-20% is too noisy to bound.
        first, _ = tracer.call("workload.pool_cold", sharded_run, pool)
        check(first, "cold")
        ctx.begin_timed()
        if tracer.enabled:
            (ref_run, ref_wall), _ = ctx.untraced(
                lambda: tracer.call("-", sharded_run, pool)
            )
            check(ref_run, "reference")
            warm, wall = tracer.call("workload.sharded_run", sharded_run, pool)
            check(warm, "warm 1")
            walls = [wall]
            overhead = wall / ref_wall
        else:
            for index in range(ctx.repeats(NOMINAL_SHARDED_RUN_S, minimum=3)):
                warm, wall = tracer.call("workload.sharded_run", sharded_run, pool)
                check(warm, f"warm {index + 1}")
                walls.append(wall)
                ctx.sample_timed()
        stats = pool.stats
    finally:
        tracer.call("workload.pool_shutdown", pool.shutdown, wait=True)

    if tracer.enabled:
        counts["workload.pool_spawn_s"] = stats.setup_s
        counts["workload.world_bytes"] = stats.world_bytes
        counts["workload.warmed_pairs"] = stats.warmed_pairs
        counts["workload.ship_s"] = first.overhead_s("world_ship_s")
        counts["workload.warm_s"] = first.overhead_s("warmup_s")
        counts["workload.queue_wait_s"] = warm.overhead_s("queue_wait_s")
        counts["workload.critical_path_cpu_s"] = warm.simulate_critical_path_s(cpu=True)
        # The slowest shard sets the run; what is left is fan-out + reduce.
        counts["workload.reduce_self_s"] = walls[0] - max(
            outcome.elapsed_s for outcome in warm.shards
        )
        predicted = [
            predicted_shard_cost(slice_)
            for slice_ in partition_calls(calls, len(warm.shards))
        ]
        counts["workload.shard_cost_ratio"] = max(predicted) / min(predicted)
        busy = [
            sum(o.phase_s.get(phase, {}).get("cpu_s", 0.0) for phase in PHASES)
            for o in warm.shards
        ]
        counts["workload.shard_busy_ratio"] = (
            max(busy) / min(busy) if min(busy) > 0 else 0.0
        )
    counts["workload.shard_retries"] = retries
    return Measured(
        unit_walls=walls,
        ops=warm.stats.calls_resolved * len(walls),
        attempted=attempted,
        failed=failed,
        failures=failures,
        invariants={"report_sha256": pipeline.sha256(reference)},
        peak_rss_mb=max(host.peak_rss_mb(), host.peak_rss_mb(children=True)),
        workers=workers,
        overhead_ratio=overhead,
    )


# --------------------------------------------------------------------- #
# fault_churn
# --------------------------------------------------------------------- #

#: Fault elements, fixed so the timeline's cost does not depend on the
#: seed: the first long-haul circuits, four PoPs led by the SIN
#: cut-vertex, the first upstreams.  ``--seed`` shuffles the order the
#: down/up pairs are played in.
CHURN_POPS = ("SIN", "LON", "ASH", "SYD")


def fault_timeline(service, seed: int, each: int) -> list:
    import numpy as np

    from repro.faults import LinkDown, LinkUp, PopDown, PopUp, SessionDown, SessionUp
    from repro.vns.links import VNS_LONG_HAUL_LINKS

    pairs = []
    for a, b in VNS_LONG_HAUL_LINKS[:each]:
        pairs.append((LinkDown, LinkUp, {"a": a, "b": b}))
    for code in CHURN_POPS[:each]:
        pairs.append((PopDown, PopUp, {"pop": code}))
    for asn in service.deployment.upstreams[:each]:
        pairs.append((SessionDown, SessionUp, {"asn": asn}))
    order = np.random.default_rng(seed).permutation(len(pairs))
    events = []
    for slot, index in enumerate(order):
        down, up, fields = pairs[int(index)]
        events.append(down(time_s=2.0 * slot, **fields))
        events.append(up(time_s=2.0 * slot + 1.0, **fields))
    return events


def fault_churn(ctx: Context) -> Measured:
    tracer, counts = ctx.tracer, ctx.counts
    service = prepare_world(ctx, ctx.sizes.churn_scale)
    from repro.bgp.engine import ConvergenceError
    from repro.faults import FaultInjector

    each = max(1, min(ctx.sizes.churn_each, round(ctx.seconds / NOMINAL_FAULT_KIND_S)))
    timeline = fault_timeline(service, ctx.seed, each)
    before, _ = pipeline.egress_scan(tracer, service)
    ctx.begin_timed()

    failures: list[str] = []

    def play(staged: bool) -> tuple[list[float], int]:
        """One pass over the timeline; (per-event walls, messages)."""
        injector = FaultInjector(service)
        walls, messages = [], 0
        for index, event in enumerate(timeline):
            try:
                if staged:
                    _, perturb_s = tracer.call("faults.perturb", injector.perturb, event)
                    delivered, converge_s = tracer.call(
                        "bgp.reconverge", injector.converge
                    )
                    walls.append(perturb_s + converge_s)
                else:
                    delivered, wall = tracer.call("faults.apply", injector.apply, event)
                    walls.append(wall)
            except ConvergenceError as exc:
                failures.append(f"{event.describe().strip()}: {exc}")
                break
            messages += delivered
            if (index + 1) % 4 == 0:
                ctx.sample_timed()
        return walls, messages

    overhead = 0.0
    if tracer.enabled:
        (ref_walls, _), _ = ctx.untraced(lambda: play(staged=False))
        walls, messages = play(staged=True)
        if ref_walls and walls:
            overhead = sum(walls) / sum(ref_walls)
        counts["bgp.reconverge_msgs"] = messages
        counts["faults.events"] = len(walls)
        pipeline.freeze_probe(tracer, service, counts)
    else:
        walls, _ = play(staged=False)
    after, decisions = pipeline.egress_scan(tracer, service)
    ctx.sample_timed()

    restored = after == before
    if not restored:
        failures.append("egress digest after the last restore differs from pre-fault")
    counts["faults.restore_identical"] = int(restored)
    counts["vns.egress_decisions"] = decisions
    return Measured(
        unit_walls=walls,
        ops=len(walls),
        attempted=len(timeline),
        failed=(len(timeline) - len(walls)) + (0 if restored else 1),
        failures=failures,
        invariants={"egress_sha256": before},
        peak_rss_mb=host.peak_rss_mb(),
        overhead_ratio=overhead,
    )


# --------------------------------------------------------------------- #
# cold_medium
# --------------------------------------------------------------------- #


def run_child(ctx: Context, scratch: Path, traced: bool) -> tuple[dict | None, float]:
    """One fresh ``python`` doing import -> build -> campaign -> record.

    ``scratch`` is its cwd, ``HOME``, cache dir and results-store
    location.  Returns the child's report (None if it exited non-zero)
    and the parent-measured wall from exec to exit.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    spec = {
        "scale": ctx.sizes.cold_scale,
        "users": ctx.sizes.cold_users,
        "seed": ctx.seed,
        "traced": traced,
        # One 15-25 s unit with four points to calibrate at: sample twice
        # as many slices at each (their time is subtracted below).
        "cal_slices": 2 * ctx.calibration.slices_per_sample,
        "out": str(scratch / f"child-{time.monotonic_ns()}.json"),
    }
    env = dict(os.environ)
    env.update(
        HOME=str(scratch),
        XDG_CACHE_HOME=str(scratch / ".cache"),
        REPRO_RESULTS_STORE=str(scratch / "results.sqlite"),
        REPRO_GIT_REV="bench_e2e",
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "child", json.dumps(spec)],
        cwd=scratch,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None, wall
    report = json.loads(Path(spec["out"]).read_text(encoding="utf-8"))
    # The child calibrates between its stages, so the scale follows the
    # host through the 15-25 s it runs; that time is the benchmark's,
    # not the program's.
    ctx.calibration.adopt("timed", report["calibration"])
    return report, wall - report["cal_s"]


def cold_medium(ctx: Context) -> Measured:
    tracer, counts = ctx.tracer, ctx.counts
    ctx.begin_timed()
    failures: list[str] = []
    children: list[dict | None] = []

    def child(scratch: Path, traced: bool = False) -> tuple[dict | None, float]:
        (report, wall), _ = tracer.call(
            "host.cold_subprocess", run_child, ctx, scratch, traced
        )
        ctx.sample_timed()
        children.append(report)
        return report, wall

    cold, cold_wall = child(ctx.scratch / "cold")
    overhead = 0.0
    if tracer.enabled:
        # A second fresh process over the first one's scratch dir (home,
        # caches, results store): what a rerun costs.  Per-layer only —
        # a second MEDIUM build in every untraced run does not fit the
        # driver's time cap.
        rerun, rerun_wall = child(ctx.scratch / "cold")
        counts["host.cold_to_report_s"] = cold_wall
        counts["host.rerun_to_report_s"] = rerun_wall
        if cold and rerun and rerun["run_id"] != cold["run_id"] + 1:
            failures.append("rerun did not append to the first run's results store")
        ctx.traced_from = time.perf_counter()
        staged, staged_wall = child(ctx.scratch / "cold-traced", traced=True)
        if staged is not None:
            tracer.adopt(staged["spans"], tracer.last_index("host.cold_subprocess"))
            counts.update(staged["counts"])
            probes_s = sum(tracer.total(name) for name in pipeline.PROBE_SPANS)
            overhead = (staged_wall - probes_s) / cold_wall

    exited_nonzero = sum(report is None for report in children)
    if exited_nonzero:
        failures.append(f"{exited_nonzero} subprocess(es) exited non-zero")
    reports = [report for report in children if report is not None]
    for report in reports:
        failures += report["failures"]
    if len({report["report_sha256"] for report in reports}) > 1:
        failures.append("the subprocesses recorded different reports")
    return Measured(
        unit_walls=[cold_wall],
        ops=cold["calls_resolved"] if cold else 0,
        attempted=len(children) + sum(report["calls"] for report in reports),
        failed=exited_nonzero + sum(report["calls_failed"] for report in reports),
        failures=failures,
        invariants={"report_sha256": reports[0]["report_sha256"] if reports else ""},
        peak_rss_mb=max((report["peak_rss_mb"] for report in reports), default=0.0),
        overhead_ratio=overhead,
    )


def cold_child(spec: dict) -> None:
    """The subprocess body (``python -m bench_e2e child <spec>``)."""
    tracer = Tracer(spec["traced"])
    calibration = Calibration(spec["cal_slices"])
    cal_s = 0.0

    def calibrate() -> None:
        nonlocal cal_s
        cal_s += tracer.call("host.calibrate", calibration.sample, "timed")[1]

    counts: dict = {}
    seed = spec["seed"]
    tracer.call("import.repro", import_program)
    from repro import perf
    from repro.results import ResultsStore, record_experiment

    if tracer.enabled:
        perf.enable()
    calibrate()
    service = pipeline.build_service(tracer, spec["scale"], counts)
    calibrate()
    calls = pipeline.generate_calls(tracer, service, spec["users"], seed)
    calibrate()
    run, _ = pipeline.run_campaign(tracer, service, calls, seed, "workload.run_cold")
    calibrate()
    recorded, _ = tracer.call(
        "results.record",
        record_experiment,
        "bench_e2e_cold",
        run,
        scale=spec["scale"],
        seed=seed,
    )
    failures: list[str] = []
    if tracer.enabled:
        failures += pipeline.campaign_probes(tracer, service, calls, seed, run, counts)
        pipeline.freeze_probe(tracer, service, counts)
        counts.update(perf_counts())
        with ResultsStore(recorded.store_path) as store:
            counts["results.rows_written"] = len(store.metrics(recorded.run_id)) + len(
                store.pair_metrics(recorded.run_id)
            )
        counts["results.store_bytes"] = recorded.store_path.stat().st_size
    tracer.stop()
    Path(spec["out"]).write_text(
        json.dumps(
            {
                "report_sha256": pipeline.sha256(run.report.to_json()),
                "calls": run.stats.calls_total,
                "calls_resolved": run.stats.calls_resolved,
                "calls_failed": run.stats.calls_failed,
                "run_id": recorded.run_id,
                "peak_rss_mb": host.peak_rss_mb(),
                "failures": failures,
                "counts": counts,
                "spans": tracer.dump(),
                "calibration": calibration.slices["timed"],
                "cal_s": cal_s,
            }
        ),
        encoding="utf-8",
    )


# --------------------------------------------------------------------- #


def import_program() -> None:
    """Import the program's packages the workloads use."""
    import repro  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.results  # noqa: F401
    import repro.workload  # noqa: F401


def perf_counts() -> dict:
    """The program's existing perf counters the per-layer metrics copy."""
    from repro import perf

    snapshot = perf.snapshot().counters
    assigns = snapshot.get("geo.assign.calls", 0)
    return {
        "net.radix_lookups": snapshot.get("net.radix.longest_match", 0),
        "vns.geo_assign_calls": assigns,
        "vns.geo_assign_memo_hit_ratio": (
            snapshot.get("geo.assign.memo_hits", 0) / assigns if assigns else 0.0
        ),
    }


WORKLOADS = {
    "cold_medium": cold_medium,
    "campaign_day": campaign_day,
    "fault_churn": fault_churn,
    "sharded_day": sharded_day,
}
