"""Region-pair QoE heatmap export (text grid and CSV).

The longitudinal analogue of the paper's per-corridor tables: pick one
corridor metric (``delay_ms.p50``, ``loss_pct.p95``,
``lossy_slot_fraction``, ``vns_delay_win_rate``, ...) on one transport
(``vns`` / ``internet`` / ``steering`` / ``""`` for pair-level columns)
and render the source-region x destination-region grid — from a report's
``pairs`` mapping or a stored run's ``pair_metrics`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.results.store import ResultsStore, flatten_metrics

#: Cells with no recorded calls render as this.
EMPTY_CELL = "-"

#: Width of one rendered grid cell.
CELL_WIDTH = 9


@dataclass(slots=True)
class HeatmapGrid:
    """One metric's corridor grid: sorted region codes, sparse values."""

    metric: str
    transport: str
    srcs: tuple[str, ...]
    dsts: tuple[str, ...]
    values: dict[tuple[str, str], float]

    def value(self, src: str, dst: str) -> float | None:
        return self.values.get((src, dst))

    def render(self) -> str:
        """An aligned text grid, sources down, destinations across:
        :data:`CELL_WIDTH`-wide cells, two decimals."""
        label = self.transport or "pair"
        lines = [f"QoE heatmap — {self.metric} ({label}), src \\ dst"]
        header = "  " + "src".ljust(6) + "".join(
            dst.rjust(CELL_WIDTH) for dst in self.dsts
        )
        lines.append(header)
        for src in self.srcs:
            cells = []
            for dst in self.dsts:
                value = self.values.get((src, dst))
                cells.append(
                    EMPTY_CELL.rjust(CELL_WIDTH)
                    if value is None
                    else f"{value:.2f}".rjust(CELL_WIDTH)
                )
            lines.append("  " + src.ljust(6) + "".join(cells))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV with a ``src`` first column and one column per destination,
        six decimals."""
        lines = [",".join(["src", *self.dsts])]
        for src in self.srcs:
            row = [src]
            for dst in self.dsts:
                value = self.values.get((src, dst))
                row.append("" if value is None else f"{value:.6f}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def heatmap_from_pairs(
    pairs: Mapping[str, Mapping], metric: str, transport: str
) -> HeatmapGrid:
    """Build the grid from a report's ``pairs`` mapping (``"SRC->DST"``)."""
    values: dict[tuple[str, str], float] = {}
    for pair_key, summary in pairs.items():
        src, _, dst = str(pair_key).partition("->")
        if not dst:
            continue
        flat = flatten_metrics(summary)
        name = f"{transport}.{metric}" if transport else metric
        if name in flat:
            values[(src, dst)] = float(flat[name])
    return _grid(metric, transport, values)


def heatmap_from_store(
    store: ResultsStore,
    run_id: int,
    *,
    report: str = "",
    metric: str = "delay_ms.p50",
    transport: str = "vns",
) -> HeatmapGrid:
    """Build the grid from a stored run's ``pair_metrics`` rows."""
    values = {
        (src, dst): value
        for (_, src, dst, _, _, value) in store.pair_metrics(
            run_id, report=report, transport=transport, metric=metric
        )
    }
    return _grid(metric, transport, values)


def _grid(
    metric: str, transport: str, values: dict[tuple[str, str], float]
) -> HeatmapGrid:
    return HeatmapGrid(
        metric=metric,
        transport=transport,
        srcs=tuple(sorted({src for src, _ in values})),
        dsts=tuple(sorted({dst for _, dst in values})),
        values=values,
    )
