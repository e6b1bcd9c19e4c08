"""Scale benchmark: the repo's first performance baseline.

Times the three system-level hot paths at SMALL / MEDIUM / LARGE world
scale and records one ``scale`` row in the results store so later
scaling PRs are judged against recorded numbers:

* world build — synthetic Internet generation + VNS convergence,
  wall-clock (also captured by the ``experiments.build_world.*`` perf
  timer);
* BGP engine throughput — messages/sec through :class:`BgpEngine`
  during the build's convergence runs, read off the perf layer;
* geo-LP assignment throughput — a microbenchmark of
  ``GeoRouteReflector.assign_geo_preference`` (optimised hot path)
  against ``assign_geo_preference_reference`` (the pre-optimisation
  implementation), over every (egress, prefix) pair with the repeat
  pattern convergence actually exhibits.

The optimised path must be decision-identical to the reference — the
MEDIUM world assertion below checks every prefix picks the same egress.
Its speed-up is recorded in the row (``geo_lp.speedup``) and backstopped
loosely by ``CI_GATES``, not asserted here: it is a ratio of two wall
clocks taken in one noisy process (EXPERIMENTS.md "Which surface owns
which number").

Scales can be restricted for smoke runs (CI) with the ``BENCH_SCALES``
environment variable, e.g. ``BENCH_SCALES=small``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import perf
from repro.bgp.attributes import Route
from repro.experiments.common import World, build_world
from repro.results import record
from repro.vns.geo_rr import GeoRouteReflector

BENCH_SEED = 7
ALL_SCALES = ("small", "medium", "large")

#: Each (egress, prefix) pair is assigned this many times in the
#: microbenchmark — convergence re-imports the same pair many times
#: (reflection, refreshes, IGP notifications), so repeats are the
#: representative workload, not a flattering one.
MICROBENCH_REPEATS = 5

#: Results accumulated across the parametrized scale tests, then recorded
#: as one ``scale`` store row by the final test in this module.
_results: dict[str, dict] = {}


def enabled_scales() -> tuple[str, ...]:
    requested = os.environ.get("BENCH_SCALES", "")
    if not requested.strip():
        return ALL_SCALES
    chosen = tuple(
        scale.strip().lower() for scale in requested.split(",") if scale.strip()
    )
    unknown = set(chosen) - set(ALL_SCALES)
    if unknown:
        raise ValueError(f"unknown BENCH_SCALES entries: {sorted(unknown)}")
    return chosen


def geo_reflector(world: World) -> GeoRouteReflector:
    for reflector in world.service.network.reflectors.values():
        if isinstance(reflector, GeoRouteReflector):
            return reflector
    raise AssertionError("world has no geo route reflector")


def assignment_workload(reflector: GeoRouteReflector) -> list[Route]:
    """One route per (egress router, prefix) pair known to the reflector."""
    path = (64500,)
    return [
        Route(prefix=prefix, as_path=path, next_hop=router_id)
        for router_id in sorted(reflector.router_locations)
        for prefix in reflector.geoip.prefixes()
    ]


def time_assignments(assign, routes: list[Route], repeats: int) -> float:
    """Total seconds for ``repeats`` passes of ``assign`` over ``routes``.

    Pass 1 sees wire routes (default LOCAL_PREF); later passes feed each
    route's previous output back in, mirroring reflection re-import where
    the assigned preference already rides on the iBGP wire.
    """
    current = list(routes)
    start = time.perf_counter()
    for _ in range(repeats):
        current = [assign(route) for route in current]
    return time.perf_counter() - start


@pytest.mark.parametrize("scale", ALL_SCALES)
def test_bench_scale(scale: str, show) -> None:
    if scale not in enabled_scales():
        pytest.skip(f"scale {scale!r} excluded by BENCH_SCALES")
    perf.reset()
    perf.enable()
    try:
        start = time.perf_counter()
        world = build_world(scale, seed=BENCH_SEED)
        build_s = time.perf_counter() - start
        snap = perf.snapshot()
    finally:
        perf.disable()

    engine = world.service.network.engine
    engine_run_s = snap.timers["bgp.engine.run"]["total_s"]
    delivered = snap.counters["bgp.engine.delivered"]
    assert delivered == engine.delivered
    engine_msgs_per_s = delivered / engine_run_s if engine_run_s else 0.0

    reflector = geo_reflector(world)
    routes = assignment_workload(reflector)
    baseline_s = time_assignments(
        reflector.assign_geo_preference_reference, routes, MICROBENCH_REPEATS
    )
    reflector.invalidate_geo_cache()  # cold memo: the fast path earns its cache
    optimised_s = time_assignments(
        reflector.assign_geo_preference, routes, MICROBENCH_REPEATS
    )
    assignments = len(routes) * MICROBENCH_REPEATS
    baseline_per_s = assignments / baseline_s
    optimised_per_s = assignments / optimised_s
    speedup = optimised_per_s / baseline_per_s

    _results[scale] = {
        "world_build_s": round(build_s, 4),
        "engine": {
            "messages_delivered": int(delivered),
            # Deterministic decision work: `_decide` runs, and how many of
            # them left the advertised outcome unchanged (diff skipped).
            "decisions": int(snap.counters["bgp.decide.calls"]),
            "decisions_unchanged": int(snap.counters["bgp.decide.unchanged"]),
            "run_s": round(engine_run_s, 4),
            "messages_per_s": round(engine_msgs_per_s, 1),
        },
        "geo_lp": {
            "assignments": assignments,
            "baseline_per_s": round(baseline_per_s, 1),
            "optimized_per_s": round(optimised_per_s, 1),
            "speedup": round(speedup, 2),
        },
        "perf_counters": snap.counters,
    }
    show(
        f"scale={scale}: build {build_s:.2f}s | engine "
        f"{engine_msgs_per_s:,.0f} msg/s ({delivered} delivered) | geo-LP "
        f"{optimised_per_s:,.0f}/s vs {baseline_per_s:,.0f}/s baseline "
        f"({speedup:.1f}x)"
    )

    assert build_s > 0 and delivered > 0


def test_geo_decisions_identical_on_medium_world() -> None:
    """Optimised vs reference: same egress for every MEDIUM-world prefix."""
    if "medium" not in enabled_scales():
        pytest.skip("medium scale excluded by BENCH_SCALES")
    world = build_world("medium", seed=BENCH_SEED)
    reflector = geo_reflector(world)
    egresses = sorted(reflector.router_locations)
    path = (64500,)
    checked = 0
    for prefix in reflector.geoip.prefixes():
        fast_lps = {}
        slow_lps = {}
        for router_id in egresses:
            route = Route(prefix=prefix, as_path=path, next_hop=router_id)
            fast_lps[router_id] = reflector.assign_geo_preference(route).local_pref
            slow_lps[router_id] = reflector.assign_geo_preference_reference(
                route
            ).local_pref
        assert fast_lps == slow_lps, f"LOCAL_PREF mismatch for {prefix}"
        fast_best = max(egresses, key=lambda rid: (fast_lps[rid], rid))
        slow_best = max(egresses, key=lambda rid: (slow_lps[rid], rid))
        assert fast_best == slow_best, f"egress flip for {prefix}"
        checked += 1
    assert checked > 500  # the medium world carries ~700 prefixes


def test_emit_bench_scale_json(show) -> None:
    assert _results, "no scale ran — check BENCH_SCALES"
    payload = {
        "seed": BENCH_SEED,
        "microbench_repeats": MICROBENCH_REPEATS,
        "scales": _results,
    }
    recorded = record("scale", payload, seed=BENCH_SEED)
    show(f"recorded scale run {recorded.run_id} in {recorded.store_path}")
