"""Lightweight perf counters and timers for the simulation's hot paths.

Zero-dependency instrumentation, **off by default**: every probe site
checks one module-level flag, so the disabled cost is a dict-free boolean
test.  Enable around a region of interest, read a snapshot, and reset:

    from repro import perf

    perf.enable()
    world = build_world("medium")
    print(perf.snapshot())
    perf.disable()

Two probe flavours:

* counters — :func:`incr` adds to a named event count;
* timers — :func:`timer` (a context manager) accumulates wall-clock
  *and* CPU seconds plus a call count under a name.

Names are dotted paths (``"bgp.engine.run"``); the registry is flat.

The public read API is the :class:`PerfSnapshot` value type returned by
:func:`snapshot`: an immutable view whose ``counters`` and ``timers``
are plain dicts, with :meth:`PerfSnapshot.diff` (what happened since a
``before`` snapshot) and :meth:`PerfSnapshot.to_dict` (JSON-ready).
Consumers should go through snapshots rather than reaching into this
module's registries.

The module is intentionally not thread-safe: the simulation is
single-threaded and the probes must stay cheap.  Worker processes each
carry their own registry; a campaign shard reads its phase timers off
a :meth:`~PerfSnapshot.diff` where it ran and hands back only those
(:attr:`repro.workload.sharded.ShardOutcome.phase_s`).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Global on/off switch.  Read directly by hot paths (`perf.enabled`);
#: mutate only via :func:`enable` / :func:`disable`.
enabled = False

#: name -> event count (plain counters).
_counts: dict[str, int] = {}
#: name -> [calls, total wall seconds, total CPU seconds] for timed regions.
_timings: dict[str, list[float]] = {}


def enable() -> None:
    """Turn instrumentation on (idempotent)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn instrumentation off; accumulated data is kept until :func:`reset`."""
    global enabled
    enabled = False


def is_enabled() -> bool:
    return enabled


def reset() -> None:
    """Drop all accumulated counters and timings."""
    _counts.clear()
    _timings.clear()


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to the counter ``name`` (no-op while disabled)."""
    if enabled:
        _counts[name] = _counts.get(name, 0) + n


def add_time(name: str, seconds: float, cpu_seconds: float | None = None) -> None:
    """Credit one call of ``seconds`` wall time (and optionally CPU time) to
    ``name``.

    Callers that only measure wall clock leave ``cpu_seconds`` unset; the
    CPU column then mirrors the wall column, which is exact for the
    single-threaded simulation whenever the process is not preempted.
    """
    if enabled:
        cpu = seconds if cpu_seconds is None else cpu_seconds
        entry = _timings.get(name)
        if entry is None:
            _timings[name] = [1, seconds, cpu]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += cpu


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Time a region: ``with perf.timer("experiments.build_world"): ...``."""
    if not enabled:
        yield
        return
    start = time.perf_counter()
    start_cpu = time.process_time()
    try:
        yield
    finally:
        add_time(
            name,
            time.perf_counter() - start,
            cpu_seconds=time.process_time() - start_cpu,
        )


def counter(name: str) -> int:
    """Current value of one counter (0 if never incremented)."""
    return _counts.get(name, 0)


@dataclass(frozen=True)
class PerfSnapshot:
    """An immutable point-in-time view of accumulated perf data.

    ``counters`` maps names to event counts; ``timers`` maps names to
    ``{"calls", "total_s", "cpu_s"}`` dicts.  Snapshots are values:
    :meth:`diff` returns a new snapshot and never touches the live
    registry.
    """

    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, dict[str, float]] = field(default_factory=dict)

    def diff(self, before: "PerfSnapshot") -> "PerfSnapshot":
        """What happened since ``before`` (never negative; empty rows drop)."""
        counters = {}
        for name, count in self.counters.items():
            delta = count - before.counters.get(name, 0)
            if delta > 0:
                counters[name] = delta
        timers = {}
        for name, entry in self.timers.items():
            prior = before.timers.get(name, _ZERO_TIMER)
            calls = entry["calls"] - prior["calls"]
            if calls <= 0:
                continue
            timers[name] = {
                "calls": calls,
                "total_s": max(entry["total_s"] - prior["total_s"], 0.0),
                "cpu_s": max(entry["cpu_s"] - prior["cpu_s"], 0.0),
            }
        return PerfSnapshot(counters=counters, timers=timers)

    def to_dict(self) -> dict:
        """JSON-ready copy: ``{"counters": ..., "timers": ...}``."""
        return {
            "counters": dict(self.counters),
            "timers": {name: dict(entry) for name, entry in self.timers.items()},
        }


_ZERO_TIMER = {"calls": 0, "total_s": 0.0, "cpu_s": 0.0}


def snapshot() -> PerfSnapshot:
    """A :class:`PerfSnapshot` of all accumulated data."""
    return PerfSnapshot(
        counters=dict(_counts),
        timers={
            name: {"calls": calls, "total_s": total, "cpu_s": cpu}
            for name, (calls, total, cpu) in _timings.items()
        },
    )


def restore(snap: PerfSnapshot) -> None:
    """Reset the live registry to exactly ``snap``'s contents.

    Lets a caller run an instrumented region on a clean slate and then
    put the world back (the in-process shard fallback does this when the
    surrounding code had perf disabled).
    """
    _counts.clear()
    _counts.update(snap.counters)
    _timings.clear()
    for name, entry in snap.timers.items():
        _timings[name] = [entry["calls"], entry["total_s"], entry["cpu_s"]]

