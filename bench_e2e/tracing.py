"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent)``; the name is ``<layer>.<call>``
where the layer is a package under ``src/repro`` (or ``import`` /
``host`` / ``trace`` for the benchmark's own bookkeeping).  Spans are
kept in memory and written out once the run ends.  A span's *self* time
is its duration minus its direct children's.

Clock: ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, one epoch
for every process on the host), so the spans a ``cold_medium``
subprocess records can be adopted into the parent's trace unchanged.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pid: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times every call it is handed; records spans only when enabled.

    With tracing off :meth:`call` still returns the call's wall seconds
    (the workloads' end-to-end numbers come from it) but keeps nothing,
    so the untraced run pays two clock reads per call and no more.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._pid = os.getpid()
        self.started = time.perf_counter()
        self.stopped: float | None = None

    def call(self, name: str, fn: Callable[..., T], *args, **kwargs) -> tuple[T, float]:
        """``fn(*args, **kwargs)`` under a span; returns (result, seconds)."""
        index = None
        if self.enabled:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self._pid))
            self._open.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if index is not None:
                self._open.pop()
                span = self.spans[index]
                span.start, span.end = start, end
        return result, end - start

    def stop(self) -> None:
        self.stopped = time.perf_counter()

    # ------------------------------------------------------------------ #
    # adoption of a subprocess's spans
    # ------------------------------------------------------------------ #

    def dump(self) -> list[list]:
        """The spans as JSON-ready rows (what a subprocess hands back)."""
        return [[s.name, s.start, s.end, s.parent, s.pid] for s in self.spans]

    def adopt(self, rows: list[list], under: int | None) -> None:
        """Append a subprocess's :meth:`dump`, its roots parented to ``under``."""
        if not self.enabled:
            return
        base = len(self.spans)
        for name, start, end, parent, pid in rows:
            self.spans.append(
                Span(name, start, end, under if parent is None else base + parent, pid)
            )

    def last_index(self, name: str) -> int | None:
        """Index of the most recent span called ``name`` (None if absent)."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index].name == name:
                return index
        return None

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name`` (0.0 if none)."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_seconds(self) -> list[float]:
        """Per-span self time: duration minus direct children's."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def layer_table(self, since: float = 0.0) -> dict[str, dict[str, float]]:
        """``layer -> {spans, self_s, total_s}`` over spans starting at or
        after ``since`` (the timed region's table passes its start).

        ``total_s`` counts a span only where its parent is in another
        layer, so nested same-layer spans are not double-counted.
        """
        own = self.self_seconds()
        table: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span.start < since:
                continue
            row = table.setdefault(
                span.layer, {"spans": 0, "self_s": 0.0, "total_s": 0.0}
            )
            row["spans"] += 1
            row["self_s"] += own[index]
            if span.parent is None or self.spans[span.parent].layer != span.layer:
                row["total_s"] += span.seconds
        return table

    def wall(self) -> float:
        end = self.stopped if self.stopped is not None else time.perf_counter()
        return end - self.started

    def coverage(self) -> float:
        """Top-level span time as a share of the traced wall clock."""
        wall = self.wall()
        if wall <= 0.0:
            return 0.0
        return sum(s.seconds for s in self.spans if s.parent is None) / wall

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def render_table(self, since: float = 0.0) -> str:
        table = self.layer_table(since)
        whole = sum(row["self_s"] for row in table.values()) or 1.0
        lines = [f"{'layer':<12}{'spans':>7}{'self_s':>11}{'share':>8}{'total_s':>11}"]
        for layer in sorted(table, key=lambda name: -table[name]["self_s"]):
            row = table[layer]
            lines.append(
                f"{layer:<12}{int(row['spans']):>7}{row['self_s']:>11.4f}"
                f"{row['self_s'] / whole:>8.1%}{row['total_s']:>11.4f}"
            )
        return "\n".join(lines)

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Chrome trace-event JSON (load in ``chrome://tracing`` / Perfetto)."""
        own = self.self_seconds()
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - self.started) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": span.pid,
                "tid": 0,
                "args": {"self_s": own[index], "parent": span.parent},
            }
            for index, span in enumerate(self.spans)
        ]
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": metadata}, indent=1),
            encoding="utf-8",
        )
