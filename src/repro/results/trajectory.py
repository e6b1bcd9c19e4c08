"""Perf-trajectory report: one bench's gated metrics across commits.

Turns the store's recorded history into the table a reviewer reads:
one row per metric, one column per recorded run (labelled by git rev),
with the relative move from the previous run annotated.
"""

from __future__ import annotations

from typing import Iterable

from repro.results.store import Gate, ResultsStore, flatten_metrics


def trajectory_metrics(
    store: ResultsStore, bench: str, metrics: Iterable[str | Gate] | None = None
) -> tuple[str, ...]:
    """Which metric names a trajectory report covers.

    Explicit ``metrics`` win; otherwise the bench's curated CI gates
    (:data:`repro.results.api.CI_GATES`); otherwise every metric the
    bench's recorded runs share (which can be wide — pass a selection
    for readable output).
    """
    if metrics is not None:
        return tuple(m.name if isinstance(m, Gate) else m.lstrip("+-") for m in metrics)
    from repro.results.api import CI_GATES

    gates = CI_GATES.get(bench)
    if gates:
        return tuple(gate.name for gate in gates)
    rows = store.runs(bench)
    if not rows:
        return ()
    shared: set[str] | None = None
    for row in rows:
        names = set(flatten_metrics(row.payload))
        shared = names if shared is None else shared & names
    return tuple(sorted(shared or ()))


def perf_trajectory(
    store: ResultsStore,
    bench: str,
    *,
    metrics: Iterable[str | Gate] | None = None,
) -> str:
    """The trajectory table for one bench, oldest run first."""
    rows = store.runs(bench)
    if not rows:
        return f"perf trajectory — bench '{bench}': no runs recorded"
    names = trajectory_metrics(store, bench, metrics)
    by_run = {row.id: flatten_metrics(row.payload) for row in rows}
    lines = [
        f"perf trajectory — bench '{bench}', {len(rows)} run(s):"
        f" {rows[0].recorded_at} ({rows[0].git_rev})"
        f" -> {rows[-1].recorded_at} ({rows[-1].git_rev})"
    ]
    name_width = max((len(name) for name in names), default=6)
    header = "  " + "metric".ljust(name_width) + "".join(
        row.git_rev[:10].rjust(14) for row in rows
    )
    lines.append(header)
    for name in names:
        cells, previous = [], None
        for row in rows:
            value = by_run[row.id].get(name)
            if value is None:
                cells.append("-".rjust(14))
                continue
            cell = _format_value(value)
            if previous not in (None, 0):
                move = (value - previous) / abs(previous)
                if abs(move) >= 0.0005:
                    cell = f"{cell} {move:+.1%}"
            cells.append(cell.rjust(14))
            previous = value
        lines.append("  " + name.ljust(name_width) + "".join(cells))
    return "\n".join(lines)


def _format_value(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    if value != 0 and abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:,.2f}"
