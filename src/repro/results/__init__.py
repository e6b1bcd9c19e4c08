"""Persistent results store with longitudinal perf/QoE analytics.

Every campaign, steering comparison and bench run lands in one sqlite
store so numbers compare across commits, seeds, scales and scenarios:

* :func:`record` — the single write path: one call, one store row
  keyed by ``(git_rev, bench, scale, seed, recorded_at)``, holding the
  payload plus any per-pair ``reports`` and ``perf`` snapshot as
  canonical JSON;
* :class:`ResultsStore` — the store itself: :meth:`~ResultsStore.metrics`,
  :meth:`~ResultsStore.pair_metrics` and :meth:`~ResultsStore.perf_rows`
  are views computed from the row on read,
  :meth:`~ResultsStore.regression` gates through the shared tolerance
  differ (:mod:`repro.tolerance`), and the committable JSONL text form
  (:meth:`~ResultsStore.export_jsonl` /
  :meth:`~ResultsStore.import_jsonl`) is lossless;
* :func:`heatmap_from_store` — per region-pair QoE heatmaps (text grid
  and CSV) for any corridor metric;
* :func:`perf_trajectory` — the cross-commit metric table;
* ``python -m repro.results`` — the CLI CI drives (``check`` gates on
  :data:`~repro.results.api.CI_GATES`, ``import``/``export`` move the
  committed history, ``trajectory``/``heatmap`` render reports).
"""

from repro.results.api import (
    CI_GATES,
    GIT_REV_ENV,
    STORE_ENV,
    RecordedRun,
    default_store_path,
    git_rev,
    open_store,
    record,
    record_experiment,
    utc_now_iso,
)
from repro.results.heatmap import (
    HeatmapGrid,
    heatmap_from_pairs,
    heatmap_from_store,
)
from repro.results.store import (
    REGRESSION_RTOL,
    Gate,
    HistoryFormatError,
    RegressionReport,
    ResultsStore,
    RunKey,
    RunRow,
    StoreSchemaError,
    flatten_metrics,
)
from repro.results.trajectory import perf_trajectory, trajectory_metrics

__all__ = [
    "CI_GATES",
    "GIT_REV_ENV",
    "REGRESSION_RTOL",
    "STORE_ENV",
    "Gate",
    "HeatmapGrid",
    "HistoryFormatError",
    "RecordedRun",
    "RegressionReport",
    "ResultsStore",
    "RunKey",
    "RunRow",
    "StoreSchemaError",
    "default_store_path",
    "flatten_metrics",
    "git_rev",
    "heatmap_from_pairs",
    "heatmap_from_store",
    "open_store",
    "perf_trajectory",
    "record",
    "record_experiment",
    "trajectory_metrics",
    "utc_now_iso",
]
