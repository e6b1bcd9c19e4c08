"""A built world is kept out of the cyclic collector, and only until the
next build.

``VideoNetworkService.build`` turns the collector off while it builds and
freezes everything alive when it returns, so no later pass walks the
world; the next build unfreezes what earlier builds froze and collects
once, which reclaims the worlds dropped since (DESIGN.md §12).  A world
on its own is freed by reference counting when it is dropped; these
tests tie each dropped world into a reference cycle, so that only the
collector can reclaim it.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.experiments.common import build_world
from repro.vns import service as service_module

SRC = Path(__file__).resolve().parents[2] / "src"


def build_and_drop_in_a_cycle() -> weakref.ref:
    """Build a SMALL world, drop it inside a reference cycle, and return a
    weak reference to its service."""
    world = build_world("small", seed=7)
    cycle: list = [world]
    cycle.append(cycle)
    return weakref.ref(world.service)


def test_a_dropped_world_is_reclaimed_by_the_next_build():
    service = build_and_drop_in_a_cycle()
    assert service() is not None  # only the collector can reclaim it
    build_world("small", seed=7)
    assert service() is None


def test_repeated_builds_do_not_pile_up_frozen_worlds():
    build_and_drop_in_a_cycle()
    first = gc.get_freeze_count()
    counts = []
    for _ in range(4):
        build_and_drop_in_a_cycle()
        counts.append(gc.get_freeze_count())
    assert all(abs(count - first) <= first / 10 for count in counts), (first, counts)


def test_a_caller_that_turned_the_collector_off_keeps_it_off():
    build_world("small", seed=7)
    assert gc.get_freeze_count() > 0
    gc.disable()
    try:
        build_world("small", seed=7)
        assert not gc.isenabled()
        assert gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_a_build_that_raises_restores_the_collector_and_freezes_nothing(monkeypatch):
    build_world("small", seed=7)
    assert gc.get_freeze_count() > 0

    def fail(*args, **kwargs):
        assert not gc.isenabled()  # paused for the build
        raise RuntimeError("planted")

    monkeypatch.setattr(service_module, "generate_topology", fail)
    with pytest.raises(RuntimeError, match="planted"):
        build_world("small", seed=7)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


FRESH_BUILD = """
import gc, json
from repro.experiments.common import build_world

passes = []
gc.callbacks.append(lambda phase, info: phase == "stop" and passes.append(info["generation"]))
tracked_before = len(gc.get_objects())
world = build_world("small", seed=7)
gc.callbacks.clear()
print(json.dumps({
    "passes": passes,
    "tracked_before": tracked_before,
    "frozen": gc.get_freeze_count(),
    "service_tracked": gc.is_tracked(world.service),
    "service_listed": any(obj is world.service for obj in gc.get_objects()),
}))
"""


def test_a_fresh_build_makes_no_pass_and_leaves_the_world_frozen():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_BUILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["passes"] == []
    # Frozen: still tracked, but in no generation a pass walks.
    assert found["frozen"] > found["tracked_before"] + 10_000
    assert found["service_tracked"] and not found["service_listed"]
