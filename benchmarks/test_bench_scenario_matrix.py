"""Scenario-matrix benchmark: the canned-regime regression gate.

Runs the scenario matrix — canned operating regimes x campaign seeds —
in this process, and holds every cell's ``CampaignReport`` to its
committed golden under ``benchmarks/goldens/scenario_matrix/`` (floats
within 5%, counts and strings exact).  Regenerate after an intentional
behaviour change with ``GOLDEN_REGEN=1``.

The run summary (per-cell calls/golden verdicts/timing) is recorded as
one ``scenario_matrix`` row in the results store — the CI artifact.

The grid can be restricted for smoke runs with
``BENCH_SCENARIO_GRID=NxM`` (N scenarios, M seeds), e.g. ``2x2``; CI
runs the full grid, so every committed golden is checked.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

from repro.results import record
from repro.scenarios import GoldenStore, canned_scenario, run_matrix

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "scenario_matrix"

#: Scenario-major grid order (regional_outage is exercised in tier-1
#: tests; its per-group BGP fault replay would dominate smoke runtime).
SCENARIO_NAMES = ("baseline", "geo_satellite", "flash_crowd", "pop_exhaustion")
SEEDS = (0, 1)

#: Scaled-down workload shared by every cell — part of the golden
#: contract: changing these knobs means regenerating the goldens.
CELL_KNOBS = dict(n_users=60, calls_per_user_day=2.0)


def grid_axes() -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The full grid, or the ``BENCH_SCENARIO_GRID=NxM`` smoke cut."""
    requested = os.environ.get("BENCH_SCENARIO_GRID", "")
    if not requested:
        return SCENARIO_NAMES, SEEDS
    try:
        n_scenarios, n_seeds = (int(part) for part in requested.split("x"))
    except ValueError:
        raise ValueError(
            f"BENCH_SCENARIO_GRID must look like '2x2', got {requested!r}"
        ) from None
    if not 1 <= n_scenarios <= len(SCENARIO_NAMES) or not 1 <= n_seeds <= len(SEEDS):
        raise ValueError(
            f"BENCH_SCENARIO_GRID {requested!r} outside "
            f"{len(SCENARIO_NAMES)}x{len(SEEDS)}"
        )
    return SCENARIO_NAMES[:n_scenarios], SEEDS[:n_seeds]


def test_bench_scenario_matrix(show):
    names, seeds = grid_axes()
    grid = [replace(canned_scenario(name), **CELL_KNOBS) for name in names]
    store = GoldenStore(GOLDEN_DIR)

    result = run_matrix(grid, seeds=seeds, golden=store)
    show(result.render())
    assert len(result.cells) == len(names) * len(seeds)
    assert all(cell.n_calls > 0 for cell in result.cells)

    recorded = record("scenario_matrix", json.loads(result.to_json()))
    show(f"recorded scenario_matrix run {recorded.run_id} in {recorded.store_path}")

    # Golden gate last, so the summary row exists even on failure.
    regressions = result.regressions()
    assert not regressions, "golden regressions:\n" + "\n".join(
        cell.golden.render() for cell in regressions
    )
