"""Scenario experiment: run one declarative scenario over a world.

The experiment-shaped bridge into :mod:`repro.scenarios`: pick a canned
scenario by registry name or hand in a spec, and run it on an
already-built world —

    scenario.run(world, "geo_satellite").render()

The spec's world *recipe* (seed, GeoIP errors) is ignored in favour of
the world actually passed in; its world *restrictions* (PoPs down,
capacity caps) and fault timeline are applied for the campaign and
rolled back afterwards, leaving the world as found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.experiments.common import World
from repro.scenarios.loader import run_scenario
from repro.scenarios.registry import canned_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.workload.engine import CampaignRun


@dataclass(slots=True)
class ScenarioRun:
    """One scenario's campaign plus the spec that produced it."""

    spec: ScenarioSpec
    campaign: CampaignRun
    sharded: bool = False

    def render(self) -> str:
        lines = [
            f"Scenario '{self.spec.name}' — scale {self.spec.world.scale}, "
            f"seed {self.spec.seed}"
            + (f", sharded" if self.sharded else "")
        ]
        if self.spec.description:
            lines.append(f"  {self.spec.description}")
        lines.append(self.campaign.render())
        return "\n".join(lines)

    def to_row(self) -> dict:
        """The campaign's row keyed under the scenario's name."""
        return {
            f"{self.spec.name}.{name}": value
            for name, value in self.campaign.to_row().items()
        }

    def to_json(self) -> str:
        """Canonical JSON: the spec, the campaign report, the flat row."""
        payload = {
            "spec": self.spec.to_dict(),
            "sharded": self.sharded,
            "report": self.campaign.report.to_dict(),
            "row": self.to_row(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def run(
    world: World,
    scenario: str | ScenarioSpec,
    *,
    seed: int | None = None,
    workers: int = 1,
) -> ScenarioRun:
    """Run one scenario on ``world`` (restoring any faults afterwards).

    ``scenario`` is a registry name (see
    :func:`repro.scenarios.registry.canned_names`) or a spec; ``seed``
    optionally overrides the spec's campaign seed.  ``workers > 1``
    runs the campaign on ``world``'s pool, which serves the world as the
    scenario's faults left it.
    """
    spec = canned_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec.world.scale != world.scale.value:
        spec = replace(spec, world=replace(spec.world, scale=world.scale.value))
    if seed is not None:
        spec = replace(spec, seed=seed)
    campaign = run_scenario(spec, base_world=world, workers=workers)
    return ScenarioRun(spec=spec, campaign=campaign, sharded=workers > 1)
