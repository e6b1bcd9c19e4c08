"""Tests for the shared experiment result shape (ExperimentResult)."""

from repro.experiments import ExperimentResult, campaign, fig6_delay
from repro.workload import CampaignRun


class TestRunDispatch:
    def test_campaign_through_the_api(self, small_world):
        result = campaign.run(small_world, n_users=40, days=1, seed=3)
        assert isinstance(result, CampaignRun)
        assert isinstance(result, ExperimentResult)

    def test_fig6_through_the_api(self, small_world):
        result = fig6_delay.run(small_world)
        assert isinstance(result, ExperimentResult)
        assert result.render().startswith("Fig 6")


class TestRenderDelegation:
    def test_failover_result_renders(self):
        # Render path only: an empty suite still produces the header rows.
        from repro.experiments.failover import FailoverResult

        assert FailoverResult().render().startswith("Failover")
