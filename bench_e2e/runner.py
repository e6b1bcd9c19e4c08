"""Run one workload and score it against ``BENCHMARK.json``'s metrics."""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_e2e import host, metrics, workloads
from bench_e2e.host import Calibration
from bench_e2e.tracing import Tracer

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MIN_COVERAGE = 0.95


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool
) -> dict:
    """One run of one workload; returns the full run record."""
    sizes = workloads.QUICK if quick else workloads.FULL
    host.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=host.OUT_DIR))
    tracer = Tracer(traced)
    calibration = Calibration(sizes.cal_slices)
    ctx = workloads.Context(
        tracer=tracer,
        calibration=calibration,
        seed=seed,
        seconds=seconds,
        sizes=sizes,
        quick=quick,
        scratch=scratch,
    )
    try:
        tracer.call("host.calibrate", calibration.sample, "setup")
        measured = workloads.WORKLOADS[name](ctx)
        if traced and "repro" in sys.modules:
            ctx.counts.update(workloads.perf_counts())
        tracer.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = list(measured.failures)
    walls = measured.unit_walls
    if not walls:
        sys.exit("bench_e2e: no timed unit completed: " + "; ".join(failures))
    timed_scale = calibration.scale("timed")
    raw = {
        "setup_s": ctx.setup_wall_s,
        "run_s": statistics.median(walls),
        "timed_wall_s": sum(walls),
        "unit_walls_s": walls,
    }
    if traced:
        coverage = tracer.coverage()
        if coverage < MIN_COVERAGE:
            failures.append(
                f"trace.coverage_ratio {coverage:.3f} < {MIN_COVERAGE} "
                "(unattributed time)"
            )
        values = metrics.per_layer(
            tracer,
            ctx.counts,
            {
                "trace.coverage_ratio": coverage,
                "trace.overhead_ratio": measured.overhead_ratio,
                "trace.time_scale": timed_scale,
                "trace.wall_s": tracer.wall(),
                "host.cpus": os.cpu_count() or 1,
                "host.workers": measured.workers,
                "host.calib_py_s": calibration.median_slice_s("py"),
                "host.calib_obj_s": calibration.median_slice_s("obj"),
                "host.calib_np_s": calibration.np_slice_s(),
            },
        )
        catalogue = metrics.PER_LAYER
    else:
        values = {
            "setup_s": raw["setup_s"] * calibration.scale("setup"),
            "run_s": raw["run_s"] * timed_scale,
            "ops_per_s": measured.ops / (raw["timed_wall_s"] * timed_scale),
            "peak_rss_mb": measured.peak_rss_mb,
        }
        catalogue = metrics.END_TO_END
    emitted = {}
    for spec in catalogue:
        metric, unit = spec[0], spec[1]
        if not METRIC_NAME.match(metric):
            failures.append(f"metric name {metric!r} is not [A-Za-z0-9_.-]+")
        if metric not in values:
            failures.append(f"metric {metric} was not measured")
            continue
        emitted[metric] = {"value": values[metric], "unit": unit}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "quick": quick,
        "correct": not failures,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failures": failures,
        "metrics": emitted,
        "raw": raw,
        "invariants": measured.invariants,
        "host": host.host_block(calibration, measured.workers),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if traced:
        trace_path = host.OUT_DIR / f"trace-{name}.json"
        tracer.write_chrome_trace(
            trace_path, {"workload": name, "seed": seed, "host": record["host"]}
        )
        record["trace"] = {
            "path": str(trace_path.relative_to(host.REPO_ROOT)),
            "layers": tracer.layer_table(),
            "timed_layers": tracer.layer_table(ctx.traced_from),
            "table": "whole run, per layer\n"
            + tracer.render_table()
            + "\ntimed region (the traced unit and its probes), per layer\n"
            + tracer.render_table(ctx.traced_from),
        }
    return record


def render(record: dict) -> str:
    """The run as text: every metric by name with its unit, then checks."""
    mode = "traced" if record["traced"] else "untraced"
    lines = [
        f"== {record['workload']} seed={record['seed']} ({mode}"
        f"{', quick' if record['quick'] else ''}) =="
    ]
    for metric, entry in record["metrics"].items():
        lines.append(f"  {metric:<34}{entry['value']:>16.6g} {entry['unit']}")
    raw = record["raw"]
    lines.append(
        f"  raw wall: setup {raw['setup_s']:.3f} s, run {raw['run_s']:.4f} s, "
        f"timed {raw['timed_wall_s']:.3f} s over {len(raw['unit_walls_s'])} units "
        f"(min {min(raw['unit_walls_s']):.4f}, max {max(raw['unit_walls_s']):.4f})"
    )
    lines.append(
        f"  ops: attempted {record['attempted']}, failed {record['failed']}"
    )
    for key, value in record["invariants"].items():
        lines.append(f"  invariants.{key}: {value}")
    block = record["host"]
    lines.append(
        f"  host: {block['cpus']} cpus, {block['workers']} pool workers, python "
        f"{block['python']}, numpy {block['numpy']}, rev {block['git_rev']}, "
        f"calib py {block['calib_py_s']:.5f} s obj {block['calib_obj_s']:.5f} s "
        f"np {block['calib_np_s']:.5f} s"
    )
    if "trace" in record:
        lines.append(f"  trace written to {record['trace']['path']}")
        lines.extend("  " + row for row in record["trace"]["table"].splitlines())
    for failure in record["failures"]:
        lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def contract_line(record: dict) -> str:
    """The driver's result object: exactly these four keys."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )
