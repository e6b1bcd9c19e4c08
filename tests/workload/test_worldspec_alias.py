"""``repro.WorldSpec`` is the scenarios world spec (lazy re-export)."""

from __future__ import annotations

import repro
from repro.scenarios.spec import WorldSpec as ScenarioWorldSpec


class TestCanonicalWorldSpec:
    def test_repro_worldspec_is_the_scenario_spec(self):
        assert repro.WorldSpec is ScenarioWorldSpec
        assert "WorldSpec" in repro.__all__
