"""``repro.results.record`` — the one write path for results.

Every bench module and experiment driver records through here: one
call writes one row in the persistent sqlite store, keyed by
``(git_rev, bench, scale, seed, recorded_at)``.  The row is the only
form a result is written in; the committed baseline is the store's JSONL
export (``benchmarks/results/history.jsonl``).

The default store lives at the repo root (``BENCH_results.sqlite``,
gitignored; CI uploads it as an artifact) and can be redirected with
the ``REPRO_RESULTS_STORE`` environment variable — set it to ``off``
to skip recording entirely.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.results.store import Gate, ResultsStore, RunKey

#: Environment override for the store location (``off`` disables).
STORE_ENV = "REPRO_RESULTS_STORE"

#: Environment override for the recorded git rev (useful where the
#: ``.git`` directory is absent, e.g. an exported source tree).
GIT_REV_ENV = "REPRO_GIT_REV"

#: The repo root this source tree lives in (``src/repro/results`` → up 3).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Default store file, at the repo root.
DEFAULT_STORE_NAME = "BENCH_results.sqlite"

#: The curated cross-commit gates CI enforces per bench (see
#: ``python -m repro.results check``).  Deliberately host-portable:
#: deterministic counts and rates tightly, wall-clock-derived
#: throughput only as a catastrophic-regression backstop.
CI_GATES: dict[str, tuple[Gate, ...]] = {
    "scale": (
        # Ratio of two wall clocks (optimised vs reference geo-LP path):
        # recorded by the bench, backstopped loosely here, asserted nowhere.
        Gate("+scales.small.geo_lp.speedup", rtol=0.5),
        # Seed-deterministic convergence work: exact int compare.
        Gate("scales.small.engine.messages_delivered"),
        Gate("scales.small.engine.decisions"),
    ),
    "workload": (
        Gate("scales.small.engine.onward_cache_hit_rate", rtol=0.10),
        Gate("+scales.small.engine.calls_per_s", rtol=0.85),
        Gate("scales.small.campaign.calls"),
        Gate("scales.small.campaign.calls_failed"),
        # Seed-deterministic kernel work (streams x slots): exact int.
        Gate("scales.small.kernel.cells"),
    ),
    "steering": (
        Gate("scales.small.policies.threshold_offload.offload_rate", rtol=0.25),
        Gate(
            "scales.small.policies.cost_budgeted.backbone_saved_fraction",
            rtol=0.25,
        ),
        Gate("scales.small.campaign.calls"),
    ),
    "scenario_matrix": (
        # The golden gate distilled: any failed cell regresses the row.
        Gate("golden_failed"),
    ),
    "failover": (
        # Seed-deterministic control-plane work of the 24-event fault
        # timeline (messages and `_decide` runs): exact int compare.
        Gate("scales.small.timeline.messages_delivered"),
        Gate("scales.small.timeline.decisions"),
        Gate("scales.small.timeline.decisions_unchanged"),
        Gate("scales.small.timeline.nht_prefixes_affected"),
        # The MEDIUM drill suite's seed-deterministic columns: exact.
        Gate("messages_total"),
        Gate("fault_events"),
        Gate("scenarios"),
        Gate("blackholes_permanent"),
        Gate("blackholes_during_max"),
    ),
}


def default_store_path() -> Path | None:
    """Where :func:`record` writes, honouring ``REPRO_RESULTS_STORE``.

    ``None`` means store writes are disabled (``REPRO_RESULTS_STORE=off``).
    """
    override = os.environ.get(STORE_ENV, "").strip()
    if override.lower() in ("off", "none", "0"):
        return None
    if override:
        return Path(override)
    return REPO_ROOT / DEFAULT_STORE_NAME


def open_store(path: str | Path | None = None) -> ResultsStore:
    """Open a results store (the default one when ``path`` is omitted)."""
    if path is None:
        path = default_store_path()
        if path is None:
            raise RuntimeError(
                f"results store disabled via {STORE_ENV}; pass an explicit path"
            )
    return ResultsStore(path)


def git_rev() -> str:
    """The short git rev to key rows by (env override, then ``git``)."""
    override = os.environ.get(GIT_REV_ENV, "").strip()
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def utc_now_iso() -> str:
    """Second-resolution UTC timestamp (``2026-08-07T12:34:56Z``)."""
    return (
        _datetime.datetime.now(_datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


@dataclass(frozen=True, slots=True)
class RecordedRun:
    """What one :func:`record` call produced."""

    key: RunKey
    #: Store row id, or ``None`` when store writes were disabled.
    run_id: int | None
    store_path: Path | None


def record(
    bench: str,
    payload: dict,
    *,
    scale: str = "",
    seed: int = 0,
    reports: Mapping[str, Mapping] | None = None,
    perf: Mapping | None = None,
) -> RecordedRun:
    """Record one result as one store row, keyed by :func:`git_rev` and
    the time now.

    ``payload`` must be JSON-ready.  The row goes to
    :func:`default_store_path` (skipped entirely when
    ``REPRO_RESULTS_STORE=off``).  ``reports`` maps labels to
    CampaignReport-shaped dicts for the per-region-pair QoE view;
    ``perf`` is a ``PerfSnapshot`` (or its ``to_dict()``) for the
    counter/timer view.
    """
    key = RunKey(
        bench=bench, scale=scale, seed=seed, git_rev=git_rev(), recorded_at=utc_now_iso()
    )
    path = default_store_path()
    run_id: int | None = None
    if path is not None:
        with ResultsStore(path) as opened:
            run_id = opened.record_run(key, payload, reports=reports, perf=perf)
    return RecordedRun(key=key, run_id=run_id, store_path=path)


def record_experiment(
    bench: str,
    result: object,
    **key_fields: object,
) -> RecordedRun:
    """Record any uniform-API experiment result through :func:`record`.

    ``result`` is an :class:`~repro.experiments.common.ExperimentResult`:
    its ``to_json()`` becomes the payload (so the stored row re-exports
    byte-stably) and its flat ``to_row()`` columns are merged in under
    ``"row"`` if the payload does not already carry them.  ``key_fields``
    pass through to :func:`record` (``scale=``, ``seed=``).
    """
    payload = json.loads(result.to_json())  # type: ignore[attr-defined]
    if "row" not in payload:
        payload["row"] = dict(result.to_row())  # type: ignore[attr-defined]
    reports = None
    report = payload.get("report")
    if isinstance(report, dict) and "pairs" in report:
        reports = {"": report}
    return record(bench, payload, reports=reports, **key_fields)  # type: ignore[arg-type]
