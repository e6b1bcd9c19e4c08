"""Shape tests for the steering-policy comparison experiment."""

import json

import pytest

from repro.experiments import ExperimentResult, campaign, steering

KWARGS = dict(
    n_users=50,
    calls_per_user_day=2.0,
    days=1,
    seed=3,
)


@pytest.fixture(scope="module")
def comparison(small_world):
    return steering.run(small_world, **KWARGS)


class TestSteeringExperiment:
    def test_runs_every_policy(self, comparison):
        assert set(comparison.runs) == set(steering.POLICIES)
        for name, campaign_run in comparison.runs.items():
            assert campaign_run.report.steering is not None
            assert campaign_run.report.steering["policy"] == name

    def test_policies_share_the_campaign(self, comparison):
        n_calls = {run_.report.n_calls for run_ in comparison.runs.values()}
        assert len(n_calls) == 1  # same users, arrivals and resolution

    def test_same_seed_is_the_campaign_experiments_campaign(
        self, small_world, comparison
    ):
        """One seed derivation: the unsteered columns are ``campaign.run``'s."""
        plain = campaign.run(
            small_world, n_users=50, calls_per_user_day=2.0, days=1, seed=3
        ).report
        steered = comparison.runs["always_vns"].report
        assert steered.n_calls == plain.n_calls
        for key, pair in plain.pairs.items():
            assert steered.pairs[key]["vns"] == pair["vns"]
            assert steered.pairs[key]["internet"] == pair["internet"]

    def test_policy_ordering(self, comparison):
        always = comparison.report("always_vns")
        threshold = comparison.report("threshold_offload")
        budgeted = comparison.report("cost_budgeted")
        assert always["offload_rate"] == 0.0
        assert threshold["offload_rate"] > 0.0
        # Half the projected bytes exceed what QoE-comparability alone
        # offloads at this scale.
        assert budgeted["backbone_bytes_saved"] > threshold["backbone_bytes_saved"]

    def test_seed_reproduces(self, small_world, comparison):
        again = steering.run(small_world, **KWARGS)
        assert again.to_json() == comparison.to_json()

    def test_to_json_is_stable_and_parseable(self, comparison):
        payload = json.loads(comparison.to_json())
        assert payload["seed"] == KWARGS["seed"]
        assert set(payload["policies"]) == set(steering.POLICIES)

    def test_render_has_policy_rows(self, comparison):
        text = comparison.render()
        assert "Steering policies" in text
        for name in steering.POLICIES:
            assert name in text
        assert len(text.splitlines()) == 2 + len(comparison.runs)

    def test_uniform_api_entry(self, comparison):
        assert isinstance(comparison, ExperimentResult)
        assert comparison.report("always_vns")["offload_rate"] == 0.0
        assert "Steering policies" in comparison.render()

