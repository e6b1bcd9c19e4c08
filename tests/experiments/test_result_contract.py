"""The uniform ExperimentResult contract: render / to_row / to_json."""

from __future__ import annotations

import json

import pytest

from repro.experiments import campaign
from repro.experiments.common import ExperimentResult
from repro.workload.engine import CampaignRun


@pytest.fixture(scope="module")
def result(small_world) -> CampaignRun:
    return campaign.run(
        small_world, n_users=60, calls_per_user_day=3.0, days=1, seed=5
    )


class TestProtocol:
    def test_campaign_run_satisfies_the_protocol(self, result):
        assert isinstance(result, ExperimentResult)

    def test_known_result_classes_carry_the_contract(self):
        from repro.experiments.failover import FailoverResult
        from repro.experiments.fig6_delay import Fig6Result
        from repro.experiments.steering import SteeringComparison
        from repro.workload.sharded import ShardedCampaignRun

        for cls in (
            CampaignRun,
            ShardedCampaignRun,
            FailoverResult,
            Fig6Result,
            SteeringComparison,
        ):
            for method in ("render", "to_row", "to_json"):
                assert callable(getattr(cls, method)), f"{cls.__name__}.{method}"


class TestCampaignRow:
    def test_row_is_flat_and_numeric(self, result):
        row = result.to_row()
        assert row["calls"] == result.report.n_calls
        for name, value in row.items():
            assert isinstance(name, str)
            assert isinstance(value, (int, float)), name

    def test_json_carries_report_and_row(self, result):
        payload = json.loads(result.to_json())
        assert payload["row"] == result.to_row()
        assert payload["report"] == result.report.to_dict()

    def test_json_is_canonical(self, result):
        text = result.to_json()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)

    def test_row_feeds_record_row_style_kwargs(self, result):
        """Dotted keys must be usable as **kwargs (bench accumulators)."""

        def sink(**metrics: float) -> dict:
            return metrics

        assert sink(**result.to_row()) == result.to_row()
