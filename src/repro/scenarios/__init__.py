"""Declarative scenarios and the scenario-matrix harness.

The declarative layer on top of the whole stack:

* :mod:`~repro.scenarios.spec` — frozen, JSON-byte-stable
  :class:`WorldSpec`/:class:`ScenarioSpec` value objects with
  schema-validating ``from_json``;
* :mod:`~repro.scenarios.registry` — the canned operating regimes
  (baseline, GEO satellite, flash crowd, regional outage, PoP
  exhaustion);
* :mod:`~repro.scenarios.loader` — composes a spec into a ready
  campaign: faulted world, call list, steering engine, and the pure
  :class:`ScenarioPathModel` applied at simulate time;
* :mod:`~repro.scenarios.matrix` — the (spec x scale x seed) grid
  runner, one faulted world per fault group, every cell in-process;
* :mod:`~repro.scenarios.golden` — tolerance-aware golden-report
  regression checks for matrix cells.
"""

from repro.scenarios.golden import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    REGEN_ENV,
    GoldenStore,
    diff_reports,
)
from repro.scenarios.loader import (
    OVERLOAD_DELAY_MS_PER_UNIT,
    OVERLOAD_LOSS_PER_UNIT,
    LoadedScenario,
    ScenarioPathModel,
    apply_scenario_faults,
    compose_scenario,
    load_scenario,
    run_scenario,
    scenario_calls,
    scenario_path_model,
    scenario_steering,
    scenario_telemetry,
)
from repro.scenarios.matrix import MatrixCell, MatrixResult, run_matrix
from repro.scenarios.registry import SCENARIOS, canned_names, canned_scenario
from repro.scenarios.spec import (
    ARRIVAL_PROFILES,
    CAPACITY_WILDCARD,
    LAST_MILE_MODELS,
    POP_CODES,
    STEERING_POLICIES,
    WORLD_SCALES,
    ScenarioSpec,
    WorldSpec,
)

__all__ = [
    "ARRIVAL_PROFILES",
    "CAPACITY_WILDCARD",
    "DEFAULT_ATOL",
    "DEFAULT_RTOL",
    "LAST_MILE_MODELS",
    "OVERLOAD_DELAY_MS_PER_UNIT",
    "OVERLOAD_LOSS_PER_UNIT",
    "POP_CODES",
    "REGEN_ENV",
    "SCENARIOS",
    "STEERING_POLICIES",
    "WORLD_SCALES",
    "GoldenStore",
    "LoadedScenario",
    "MatrixCell",
    "MatrixResult",
    "ScenarioPathModel",
    "ScenarioSpec",
    "WorldSpec",
    "apply_scenario_faults",
    "canned_names",
    "canned_scenario",
    "compose_scenario",
    "diff_reports",
    "load_scenario",
    "run_matrix",
    "run_scenario",
    "scenario_calls",
    "scenario_path_model",
    "scenario_steering",
    "scenario_telemetry",
]
