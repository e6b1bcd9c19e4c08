"""Shape tests for the campaign experiment driver."""

import pytest

from repro.experiments import campaign


@pytest.fixture(scope="module")
def result(small_world):
    return campaign.run(
        small_world, n_users=60, calls_per_user_day=3.0, days=1, seed=5
    )


class TestCampaignExperiment:
    def test_campaign_completes(self, result):
        assert result.stats.calls_resolved > 0
        assert result.report.n_calls == result.stats.calls_resolved

    def test_seed_reproduces_report(self, small_world, result):
        again = campaign.run(
            small_world, n_users=60, calls_per_user_day=3.0, days=1, seed=5
        )
        assert again.report.to_json() == result.report.to_json()

    def test_render_has_corridor_rows(self, result):
        text = result.render()
        assert "Campaign" in text
        assert "path-cache hit rate" in text
        # One row per directed region pair present in the report.
        assert len(text.splitlines()) == 4 + len(result.report.pairs)

