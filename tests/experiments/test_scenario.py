"""The scenario experiment (``repro.experiments.scenario.run``)."""

import pytest

from repro.experiments.scenario import run
from repro.scenarios import ScenarioSpec


class TestScenarioExperiment:
    def test_canned_scenario_by_name(self, small_world):
        result = run(small_world, "baseline", seed=5)
        assert result.spec.name == "baseline"
        assert result.spec.seed == 5
        assert result.campaign.report.n_calls > 0
        rendered = result.render()
        assert "baseline" in rendered and "Campaign" in rendered

    def test_spec_json_selects_the_scenario(self, small_world):
        spec = ScenarioSpec(name="adhoc", n_users=20, calls_per_user_day=1.0)
        result = run(small_world, ScenarioSpec.from_json(spec.to_json()))
        assert result.spec.name == "adhoc"

    def test_spec_scale_is_overridden_by_the_world(self, small_world):
        spec = ScenarioSpec(name="adhoc", n_users=20, calls_per_user_day=1.0)
        spec_json = spec.to_json().replace('"small"', '"large"')
        result = run(small_world, ScenarioSpec.from_json(spec_json))
        assert result.spec.world.scale == "small"

    def test_exactly_one_selector_required(self, small_world):
        with pytest.raises(TypeError):
            run(small_world)

    def test_unknown_name_lists_registry(self, small_world):
        with pytest.raises(KeyError, match="baseline"):
            run(small_world, "nope")
