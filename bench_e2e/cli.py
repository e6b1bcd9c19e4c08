"""``python -m bench_e2e`` — run the workloads, compare two result files."""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

from bench_e2e import host, runner
from bench_e2e.compare import compare_files
from bench_e2e.workloads import cold_child

WORKLOAD_NAMES = ("cold_medium", "campaign_day", "fault_churn", "sharded_day")


def benchmark_spec() -> dict:
    return json.loads((host.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench_e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload (default: all four)")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--seconds", type=float, help="timed work per run (default: run_seconds)"
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--quick", action="store_true", help="SMALL-scale smoke sizes")
    run.add_argument(
        "--out", type=Path, help="append each run record to this JSON-lines file"
    )

    compare = commands.add_parser(
        "compare", help="end-to-end metrics of two result files, with verdicts"
    )
    compare.add_argument("base", type=Path)
    compare.add_argument("change", type=Path)

    child = commands.add_parser("child")  # cold_medium's subprocess body
    child.add_argument("spec")

    args = parser.parse_args(argv)
    host.require_checkout()
    if args.command == "compare":
        print(compare_files(args.base, args.change, benchmark_spec()))
        return 0
    # SIGTERM leaves through the ``finally`` blocks, like any exception;
    # no process started here outlives this one on any path out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.command == "child":
            cold_child(json.loads(args.spec))
            return 0
        return run_command(args)
    finally:
        host.reap_children()


def run_command(args: argparse.Namespace) -> int:
    traced = bool(args.trace or args.traced)
    seconds = args.seconds
    if seconds is None:
        seconds = float(benchmark_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, args.quick, args.out)

    record = runner.run_workload(args.workload, args.seed, seconds, traced, args.quick)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a", encoding="utf-8") as sink:
            sink.write(json.dumps(record) + "\n")
    print(runner.render(record))
    print(runner.contract_line(record))
    return 0 if record["correct"] else 1


def run_all(seed: int, seconds: float, quick: bool, out: Path | None) -> int:
    """Every workload, untraced then traced, each in a fresh process.

    A process per run keeps ``peak_rss_mb`` and ``import.repro_s`` those
    of one workload.  The traced run must reproduce the untraced run's
    invariants (same simulated statistics, stage by stage).
    """
    status = 0
    for workload in WORKLOAD_NAMES:
        invariants = []
        for trace in (0, 1):
            command = [
                sys.executable, "-m", "bench_e2e", "run",
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]  # fmt: skip
            if quick:
                command.append("--quick")
            if out is not None:
                command += ["--out", str(out)]
            done = subprocess.run(
                command, cwd=host.REPO_ROOT, stdout=subprocess.PIPE, text=True
            )
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            status = status or done.returncode
            invariants.append(
                [line for line in done.stdout.splitlines() if "invariants." in line]
            )
        if invariants[0] != invariants[1]:
            print(f"FAILED: {workload}: traced and untraced invariants differ")
            status = 1
    return status
