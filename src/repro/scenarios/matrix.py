"""The scenario-matrix runner: grid of (spec x seed) cells at SMALL scale.

A matrix expands scenario specs over campaign seeds on SMALL worlds,
runs every cell in this process, and checks each cell's byte-stable
report against a committed golden.  It is the repo's
regression harness for the paper's claims: one command re-runs the
canned operating regimes and diffs them against known-good reports.

**Fault groups.**  Cells are grouped by their *fault signature* — the
world-mutating part of the spec (scale, world seed, GeoIP errors,
PoPs down, control-plane fault timeline).  Each group applies its
faults once, runs every cell on the faulted world, then restores the
world.  Unfaulted scenarios (baseline, GEO satellite, flash crowd, PoP
exhaustion — whose impairments live in the path model, not the world)
all share one group per world.

**Determinism.**  A cell's report is the one its scenario gives through
:func:`~repro.scenarios.loader.run_scenario`, whatever group it ran in.
Output cells come back in grid-expansion order (scenario-major, then
seed) regardless of the grouped execution order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments.common import World
from repro.faults.events import event_to_dict
from repro.scenarios.golden import GoldenStore
from repro.scenarios.loader import (
    apply_scenario_faults,
    build_spec_world,
    compose_scenario,
)
from repro.scenarios.registry import canned_scenario
from repro.scenarios.spec import ScenarioSpec, WorldSpec
from repro.tolerance import ToleranceDiff

#: Every matrix cell runs on a SMALL world.
MATRIX_SCALE = "small"


@dataclass(slots=True)
class MatrixCell:
    """One completed grid cell."""

    scenario: str
    scale: str
    seed: int
    #: ``CampaignReport.to_dict()`` — the golden-checked payload.
    report: dict
    n_calls: int
    n_failed: int
    elapsed_s: float
    #: Golden comparison, or ``None`` when no store was given.
    golden: ToleranceDiff | None = None

    @property
    def key(self) -> str:
        """The cell's identity — also its golden file stem."""
        return f"{self.scenario}-{self.scale}-seed{self.seed}"

    @property
    def ok(self) -> bool:
        return self.golden is None or self.golden.ok


@dataclass(slots=True)
class MatrixResult:
    """Every cell of a matrix run, in grid-expansion order."""

    cells: list[MatrixCell] = field(default_factory=list)
    elapsed_s: float = 0.0

    def cell(self, key: str) -> MatrixCell:
        for cell in self.cells:
            if cell.key == key:
                return cell
        raise KeyError(
            f"no cell {key!r} (have: {[cell.key for cell in self.cells]})"
        )

    def regressions(self) -> list[MatrixCell]:
        """Cells whose golden comparison failed (mismatch or missing)."""
        return [cell for cell in self.cells if not cell.ok]

    @property
    def ok(self) -> bool:
        return not self.regressions()

    def summary(self) -> dict:
        """A JSON-ready run summary (the CI artifact payload)."""
        checked = [cell for cell in self.cells if cell.golden is not None]
        return {
            "elapsed_s": round(self.elapsed_s, 3),
            "cells": [
                {
                    "key": cell.key,
                    "scenario": cell.scenario,
                    "scale": cell.scale,
                    "seed": cell.seed,
                    "n_calls": cell.n_calls,
                    "n_failed": cell.n_failed,
                    "elapsed_s": round(cell.elapsed_s, 3),
                    "golden": (
                        None
                        if cell.golden is None
                        else {
                            "ok": cell.golden.ok,
                            "missing": cell.golden.missing,
                            "mismatches": list(cell.golden.mismatches),
                        }
                    ),
                }
                for cell in self.cells
            ],
            "golden_checked": len(checked),
            "golden_failed": sum(1 for cell in checked if not cell.ok),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The matrix as an aligned table plus any golden diffs."""
        lines = [
            f"Scenario matrix — {len(self.cells)} cell(s), {self.elapsed_s:.1f}s"
        ]
        header = f"  {'cell':<34} {'calls':>7} {'failed':>7} {'golden':>8}"
        lines.append(header)
        for cell in self.cells:
            if cell.golden is None:
                verdict = "-"
            elif cell.golden.missing:
                verdict = "missing"
            elif cell.golden.ok:
                verdict = "ok"
            else:
                verdict = "FAIL"
            lines.append(
                f"  {cell.key:<34} {cell.n_calls:>7} {cell.n_failed:>7} "
                f"{verdict:>8}"
            )
        for cell in self.regressions():
            lines.append(cell.golden.render())
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# grid expansion and grouping
# --------------------------------------------------------------------- #


def _resolve(scenario: ScenarioSpec | str) -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return canned_scenario(scenario)


def _fault_signature(spec: ScenarioSpec) -> tuple:
    """What a cell does to the *world* (not the path model).

    Cells with equal signatures can share one faulted world: the
    world-mutating inputs are the build recipe plus the
    control-plane timeline.  ``pop_capacity`` and the last-mile model
    are excluded on purpose — they act at simulate time only.
    """
    world = spec.world
    return (
        world.scale,
        world.seed,
        world.geoip_errors,
        world.pops_down,
        tuple(json.dumps(event_to_dict(event), sort_keys=True) for event in spec.faults),
    )


def run_matrix(
    scenarios: "list[ScenarioSpec | str]",
    *,
    seeds: tuple[int, ...] = (0,),
    golden: "GoldenStore | str | Path | None" = None,
    update_golden: bool = False,
) -> MatrixResult:
    """Run the full (scenario x seed) grid at :data:`MATRIX_SCALE`.

    Parameters
    ----------
    scenarios:
        Specs, or canned-registry names resolved via
        :func:`~repro.scenarios.registry.canned_scenario`.
    seeds:
        The grid's seed axis; each scenario is re-targeted per cell with
        ``dataclasses.replace`` (the spec's own scale and seed are
        overridden).
    golden:
        A :class:`GoldenStore` (or a directory for one); each cell's
        report is checked against ``<dir>/<cell key>.json`` at the
        differ's default tolerances.
        ``update_golden=True`` (or ``GOLDEN_REGEN=1``) rewrites the
        goldens instead.
    """
    started = time.perf_counter()
    grid: list[ScenarioSpec] = []
    for scenario in scenarios:
        spec = _resolve(scenario)
        for seed in seeds:
            grid.append(
                replace(spec, seed=seed, world=replace(spec.world, scale=MATRIX_SCALE))
            )
    store = (
        golden
        if isinstance(golden, GoldenStore) or golden is None
        else GoldenStore(golden)
    )

    # Group cells by fault signature so a faulted world is set up once
    # per group, preserving each cell's expansion index.
    groups: dict[tuple, list[tuple[int, ScenarioSpec]]] = {}
    for index, spec in enumerate(grid):
        groups.setdefault(_fault_signature(spec), []).append((index, spec))

    # One world per build recipe, whatever the cells then do to it.
    worlds: dict[WorldSpec, World] = {}

    def _world_for(spec: ScenarioSpec) -> World:
        recipe = replace(spec.world, pops_down=(), pop_capacity=())
        if recipe not in worlds:
            worlds[recipe] = build_spec_world(recipe)
        return worlds[recipe]

    def _run_cell(spec: ScenarioSpec, world: World, degradations) -> MatrixCell:
        cell_started = time.perf_counter()
        run = compose_scenario(spec, world, degradations).run()
        report = run.report.to_dict()
        cell = MatrixCell(
            scenario=spec.name,
            scale=spec.world.scale,
            seed=spec.seed,
            report=report,
            n_calls=run.stats.calls_resolved + run.stats.calls_failed,
            n_failed=run.stats.calls_failed,
            elapsed_s=time.perf_counter() - cell_started,
        )
        if store is not None:
            cell.golden = store.check(cell.key, report, update=update_golden)
        return cell

    cells: list[MatrixCell | None] = [None] * len(grid)
    for members in groups.values():
        world = _world_for(members[0][1])
        applied = apply_scenario_faults(world.service, members[0][1])
        try:
            for index, spec in members:
                cells[index] = _run_cell(spec, world, applied.degradations)
        finally:
            applied.restore()

    return MatrixResult(
        cells=[cell for cell in cells if cell is not None],
        elapsed_s=time.perf_counter() - started,
    )
