"""Compare the end-to-end metrics of two result files (JSON lines).

Each file holds any number of untraced run records per workload (``run
--out FILE`` appends them).  Per workload and metric: both medians, both
run-to-run spreads (inter-quartile distance as a share of the median),
the change, the bound from ``BENCHMARK.json`` and a verdict:

``regressed``   the change's median is worse than the base's by more
                than the bound;
``unresolved``  a spread is wider than the bound and the runs of the two
                sides overlap — neither "unchanged" nor "better" is shown;
``ok``          otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over the file's untraced records."""
    table: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["traced"]:
            continue
        metrics = table.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return table


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(change) / statistics.median(base) - 1.0)
    if worse_by > bound:
        return "regressed"
    if max(spread(base), spread(change)) > bound:
        every_run_better = (
            max(change) < min(base) if better == "lower" else min(change) > max(base)
        )
        if not every_run_better:
            return "unresolved"
    return "ok"


def compare_files(base_path: Path, change_path: Path, spec: dict) -> str:
    base, change = load(base_path), load(change_path)
    header = (
        f"{'workload':<14}{'metric':<13}{'unit':<6}{'base':>12}{'spread':>8}"
        f"{'change':>12}{'spread':>8}{'delta':>9}{'bound':>7}  verdict"
    )
    lines = [header]
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name)
            b = change.get(workload, {}).get(name)
            if not a or not b:
                lines.append(f"{workload:<14}{name:<13}(missing on one side)")
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            lines.append(
                f"{workload:<14}{name:<13}{metric['unit']:<6}{median_a:>12.5g}"
                f"{spread(a):>8.1%}{median_b:>12.5g}{spread(b):>8.1%}"
                f"{median_b / median_a - 1.0:>+9.1%}{metric['bound']:>7.0%}"
                f"  {verdict(a, b, metric['better'], metric['bound'])}"
                f" (n={len(a)}/{len(b)})"
            )
    return "\n".join(lines)
