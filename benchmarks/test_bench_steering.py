"""Steering benchmark: policy comparison cost and effect baseline.

Runs the :mod:`repro.experiments.steering` comparison (one seeded
campaign per policy over a shared telemetry table) at SMALL and MEDIUM
world scale and records one ``steering`` row in the results store, so
later steering-path PRs are judged against recorded numbers:

* decision throughput — steering decisions per second across the
  campaign (the hot path :meth:`SteeringEngine.decide` adds to every
  resolved call);
* telemetry cost — probe rounds and probes behind the health table;
* policy effect — per policy: offload rate, detour calls, backbone
  bytes saved and the mean QoE delta vs the always-VNS stance.

The MEDIUM run must show the threshold policy offloading a nonzero
share of calls while its mean QoE regression stays inside the
configured deltas, and the budget policy saving at least its budget
fraction's worth of backbone bytes.

Scales can be restricted for smoke runs (CI) with the
``BENCH_STEERING_SCALES`` environment variable, e.g.
``BENCH_STEERING_SCALES=small``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import perf
from repro.experiments import steering
from repro.experiments.common import build_world
from repro.results import record
from repro.scenarios import loader
from repro.steering import ThresholdOffloadPolicy

BENCH_SEED = 7
ALL_SCALES = ("small", "medium")

#: Comparison sizing per scale.  Each scale runs the full three-policy
#: line-up over the same campaign, so the decision counter sees
#: ~3x the calls.
CAMPAIGNS: dict[str, dict] = {
    "small": {"n_users": 300, "calls_per_user_day": 5.0},
    "medium": {"n_users": 800, "calls_per_user_day": 6.0},
}

#: The thresholds the MEDIUM acceptance asserts against, restated so a
#: drift of the one place each is defined (ThresholdOffloadPolicy's
#: field defaults, ``scenarios.loader.BUDGET_FRACTION``) fails loudly.
RTT_DELTA_MS = 15.0
LOSS_DELTA_PCT = 0.25
BUDGET_FRACTION = 0.5

#: Results accumulated across the parametrized scale tests, then recorded
#: as one ``steering`` store row by the final test in this module.
_results: dict[str, dict] = {}


def enabled_scales() -> tuple[str, ...]:
    requested = os.environ.get("BENCH_STEERING_SCALES", "")
    if not requested.strip():
        return ALL_SCALES
    chosen = tuple(
        scale.strip().lower() for scale in requested.split(",") if scale.strip()
    )
    unknown = set(chosen) - set(ALL_SCALES)
    if unknown:
        raise ValueError(f"unknown BENCH_STEERING_SCALES entries: {sorted(unknown)}")
    return chosen


@pytest.mark.parametrize("scale", ALL_SCALES)
def test_bench_steering(scale: str, show) -> None:
    if scale not in enabled_scales():
        pytest.skip(f"scale {scale!r} excluded by BENCH_STEERING_SCALES")
    sizing = CAMPAIGNS[scale]
    policy = ThresholdOffloadPolicy()
    assert (policy.rtt_delta_ms, policy.loss_delta_pct) == (RTT_DELTA_MS, LOSS_DELTA_PCT)
    assert loader.BUDGET_FRACTION == BUDGET_FRACTION
    start = time.perf_counter()
    world = build_world(scale, seed=BENCH_SEED)
    build_s = time.perf_counter() - start

    perf.reset()
    perf.enable()
    run_start = time.perf_counter()
    try:
        comparison = steering.run(
            world,
            n_users=sizing["n_users"],
            calls_per_user_day=sizing["calls_per_user_day"],
            seed=BENCH_SEED,
        )
        elapsed_s = time.perf_counter() - run_start
        snap = perf.snapshot()
    finally:
        perf.disable()
        perf.reset()

    decisions = snap.counters.get("steering.decide", 0)
    policy_rows: dict[str, dict] = {}
    for name, campaign_run in comparison.runs.items():
        block = campaign_run.report.steering
        assert block is not None, name
        policy_rows[name] = {
            "offload_rate": round(block["offload_rate"], 4),
            "detour_calls": block["detour_calls"],
            "backbone_bytes_saved": block["backbone_bytes_saved"],
            "backbone_saved_fraction": round(block["backbone_saved_fraction"], 4),
            "qoe_delta_vs_vns": {
                "delay_ms_mean": round(block["qoe_delta_vs_vns"]["delay_ms_mean"], 4),
                "loss_pct_mean": round(block["qoe_delta_vs_vns"]["loss_pct_mean"], 4),
            },
        }
    threshold = comparison.report("threshold_offload")
    budgeted = comparison.report("cost_budgeted")

    _results[scale] = {
        "world_build_s": round(build_s, 4),
        "elapsed_s": round(elapsed_s, 4),
        "campaign": {
            "users": sizing["n_users"],
            "calls": comparison.runs["always_vns"].report.n_calls,
        },
        "decisions": {
            "total": decisions,
            "per_s": round(decisions / elapsed_s, 1) if elapsed_s else 0.0,
        },
        "policies": policy_rows,
    }
    show(
        f"scale={scale}: {decisions} decisions in {elapsed_s:.2f}s | threshold"
        f" offload {threshold['offload_rate']:.1%}"
        f" (dQoE {threshold['qoe_delta_vs_vns']['delay_ms_mean']:+.2f} ms)"
        f" | budgeted saves {budgeted['backbone_saved_fraction']:.1%} of backbone"
    )

    assert decisions > 0
    assert comparison.report("always_vns")["offload_rate"] == 0.0
    assert threshold["offload_rate"] > 0.0
    assert threshold["qoe_delta_vs_vns"]["delay_ms_mean"] <= RTT_DELTA_MS
    assert threshold["qoe_delta_vs_vns"]["loss_pct_mean"] <= LOSS_DELTA_PCT
    if scale == "medium":
        # The budget plan targets offloading half the projected backbone
        # bytes; the realised share must land in its neighbourhood.
        assert budgeted["backbone_saved_fraction"] >= BUDGET_FRACTION * 0.8


def test_emit_bench_steering_json(show) -> None:
    assert _results, "no scale ran — check BENCH_STEERING_SCALES"
    payload = {
        "seed": BENCH_SEED,
        "thresholds": {
            "rtt_delta_ms": RTT_DELTA_MS,
            "loss_delta_pct": LOSS_DELTA_PCT,
            "budget_fraction": BUDGET_FRACTION,
        },
        "telemetry": {
            "days": loader.TELEMETRY_DAYS,
            "minutes_between_rounds": loader.TELEMETRY_MINUTES_BETWEEN_ROUNDS,
            "hosts_per_type_per_region": loader.TELEMETRY_HOSTS_PER_TYPE_PER_REGION,
        },
        "campaigns": {scale: CAMPAIGNS[scale] for scale in _results},
        "scales": _results,
    }
    recorded = record("steering", payload, seed=BENCH_SEED)
    show(f"recorded steering run {recorded.run_id} in {recorded.store_path}")
    for scale, row in _results.items():
        assert row["decisions"]["total"] > 0, scale
