"""Perf instrumentation (counters/timers) for the simulation hot paths.

Import as ``from repro import perf``; see :mod:`repro.perf.counters` for
the probe API.  Off by default — enabling is explicit and scoped to the
benchmark or investigation that wants the numbers.
"""

from repro.perf.counters import (
    PerfSnapshot,
    add_time,
    counter,
    disable,
    enable,
    incr,
    is_enabled,
    reset,
    restore,
    snapshot,
    timer,
)

__all__ = [
    "PerfSnapshot",
    "add_time",
    "counter",
    "disable",
    "enable",
    "incr",
    "is_enabled",
    "reset",
    "restore",
    "snapshot",
    "timer",
]
