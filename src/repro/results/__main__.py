"""CLI for the persistent results store — what CI drives.

Subcommands
-----------
``list``
    Recorded runs (key columns), oldest first.
``check``
    Cross-commit regression gate: compares each bench's latest run
    against its baseline through the shared tolerance differ, using the
    curated :data:`~repro.results.api.CI_GATES` (or ``--metric``
    overrides).  Exit code 2 on regression — the CI failure signal.
``trajectory``
    The per-metric table across recorded commits.
``heatmap``
    Region-pair QoE heatmap for a stored run (text or ``--csv``).
``import`` / ``export``
    Move runs between the sqlite store and its committable JSONL form
    (lossless both ways).  ``export --bench NAME`` instead renders the
    latest ``NAME`` run's payload as an indented JSON snapshot.

Examples
--------
::

    python -m repro.results import benchmarks/results/history.jsonl
    python -m repro.results check --bench workload --bench scale
    python -m repro.results trajectory --bench workload
    python -m repro.results heatmap --bench workload --metric loss_pct.p95
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.results.api import CI_GATES, default_store_path, open_store
from repro.results.heatmap import heatmap_from_store
from repro.results.store import Gate, ResultsStore, canonical_json
from repro.results.trajectory import perf_trajectory

#: ``check`` exit code on a detected regression.
EXIT_REGRESSION = 2


def _parse_gate(spec: str) -> Gate:
    """``+scales.small.engine.calls_per_s:0.5`` → a :class:`Gate`."""
    metric, _, rtol = spec.partition(":")
    if rtol:
        return Gate(metric, rtol=float(rtol))
    return Gate(metric)


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help=f"store path (default: {default_store_path() or 'disabled'})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.results",
        description="persistent results store: gates, trajectories, heatmaps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="recorded runs, oldest first")
    _add_store_arg(listing)
    listing.add_argument("--bench", default=None)

    check = sub.add_parser("check", help="cross-commit regression gate")
    _add_store_arg(check)
    check.add_argument(
        "--bench",
        action="append",
        default=None,
        help="bench to gate (repeatable; default: every bench with CI gates"
        " present in the store)",
    )
    check.add_argument(
        "--metric",
        action="append",
        default=None,
        help="override gates: [+|-]dotted.path[:rtol] (repeatable)",
    )
    check.add_argument(
        "--baseline-rev", default=None, help="pin the baseline git rev"
    )

    traj = sub.add_parser("trajectory", help="metric table across commits")
    _add_store_arg(traj)
    traj.add_argument("--bench", required=True)
    traj.add_argument("--metric", action="append", default=None)

    heat = sub.add_parser("heatmap", help="region-pair QoE heatmap")
    _add_store_arg(heat)
    heat.add_argument("--bench", required=True)
    heat.add_argument("--run-id", type=int, default=None, help="default: latest run")
    heat.add_argument("--report", default="", help="report label within the run")
    heat.add_argument("--transport", default="vns")
    heat.add_argument("--metric", default="delay_ms.p50")
    heat.add_argument("--csv", action="store_true")

    imp = sub.add_parser("import", help="append runs from a JSONL history file")
    _add_store_arg(imp)
    imp.add_argument("history", help="JSONL file produced by 'export'")

    exp = sub.add_parser("export", help="dump the store as JSONL")
    _add_store_arg(exp)
    exp.add_argument("--out", default=None, help="write here instead of stdout")
    exp.add_argument(
        "--bench",
        default=None,
        help="render the latest run of this bench as an indented JSON"
        " snapshot of its payload, instead of the whole store as JSONL",
    )
    return parser


def _open(args: argparse.Namespace) -> ResultsStore:
    return open_store(args.store)


def cmd_list(args: argparse.Namespace) -> int:
    with _open(args) as store:
        rows = store.runs(args.bench)
        if not rows:
            print("no runs recorded")
            return 0
        print(f"{'id':>5}  {'bench':<18} {'rev':<12} {'recorded_at':<22} key")
        for row in rows:
            key = row.key
            detail = ", ".join(
                f"{name}={value}"
                for name, value in (("scale", key.scale), ("seed", key.seed))
                if value not in ("", 0)
            )
            print(
                f"{row.id:>5}  {key.bench:<18} {key.git_rev:<12}"
                f" {key.recorded_at:<22} {detail}"
            )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    overrides = (
        tuple(_parse_gate(spec) for spec in args.metric) if args.metric else None
    )
    failed = False
    with _open(args) as store:
        benches = args.bench or [
            bench for bench in store.benches() if bench in CI_GATES
        ]
        if not benches:
            print("no benches to check (store empty or no CI gates match)")
            return 0
        for bench in benches:
            gates = overrides if overrides is not None else CI_GATES.get(bench)
            report = store.regression(
                bench, metrics=gates, baseline_rev=args.baseline_rev
            )
            print(report.render())
            failed |= not report.ok
    return EXIT_REGRESSION if failed else 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    with _open(args) as store:
        print(perf_trajectory(store, args.bench, metrics=args.metric))
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    with _open(args) as store:
        if args.run_id is not None:
            run_id = args.run_id
        else:
            latest = store.latest(args.bench)
            if latest is None:
                print(f"no runs recorded for bench {args.bench!r}")
                return 1
            run_id = latest.id
        grid = heatmap_from_store(
            store,
            run_id,
            report=args.report,
            transport=args.transport,
            metric=args.metric,
        )
        if not grid.values:
            print(
                f"run {run_id} has no pair metrics for report={args.report!r}"
                f" transport={args.transport!r} metric={args.metric!r}"
            )
            return 1
        print(grid.to_csv() if args.csv else grid.render(), end="")
        if not args.csv:
            print()
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    with _open(args) as store:
        run_ids = store.import_jsonl(args.history)
    print(f"imported {len(run_ids)} run(s) from {args.history}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    with _open(args) as store:
        if args.bench is None:
            text = store.export_jsonl()
        else:
            latest = store.latest(args.bench)
            if latest is None:
                print(f"no runs recorded for bench {args.bench!r}")
                return 1
            text = canonical_json(latest.payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


COMMANDS = {
    "list": cmd_list,
    "check": cmd_check,
    "trajectory": cmd_trajectory,
    "heatmap": cmd_heatmap,
    "import": cmd_import,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
