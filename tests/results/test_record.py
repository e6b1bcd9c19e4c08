"""The unified ``record()`` write path: one call, one store row."""

from __future__ import annotations

import json

import pytest

from repro.results import (
    GIT_REV_ENV,
    STORE_ENV,
    ResultsStore,
    default_store_path,
    record,
    record_experiment,
)

@pytest.fixture
def store_path(monkeypatch, tmp_path):
    """A fresh store for :func:`record`, and a pinned git rev."""
    path = tmp_path / "results.sqlite"
    monkeypatch.setenv(STORE_ENV, str(path))
    monkeypatch.setenv(GIT_REV_ENV, "abc1234")
    return path


class TestStoreRouting:
    def test_explicit_store_path(self, store_path):
        recorded = record("demo", {"calls": 3}, scale="small", seed=7)
        assert recorded.run_id is not None
        assert recorded.store_path == store_path
        with ResultsStore(store_path) as store:
            row = store.latest("demo")
            assert row.id == recorded.run_id
            assert row.key.scale == "small"
            assert row.key.seed == 7
            assert row.key.git_rev == "abc1234"
            assert store.metrics(row.id)["calls"] == 3

    def test_env_disable_skips_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, "off")
        assert default_store_path() is None
        recorded = record("demo", {"calls": 1})
        assert recorded.run_id is None
        assert recorded.store_path is None

    def test_env_redirect(self, monkeypatch, tmp_path):
        target = tmp_path / "redirected.sqlite"
        monkeypatch.setenv(STORE_ENV, str(target))
        assert default_store_path() == target
        record("demo", {"calls": 1})
        with ResultsStore(target) as store:
            assert store.latest("demo") is not None

    def test_git_rev_env_override(self, monkeypatch, store_path):
        monkeypatch.setenv(GIT_REV_ENV, "ci_head")
        recorded = record("demo", {"calls": 1})
        assert recorded.key.git_rev == "ci_head"


class _StubResult:
    """A minimal uniform-API experiment result."""

    def render(self) -> str:
        return "stub"

    def to_row(self) -> dict:
        return {"calls": 5, "rate": 0.5}

    def to_json(self) -> str:
        return json.dumps({"report": {"pairs": {"EU->NA": {"calls": 5}}}}, sort_keys=True)


class TestRecordExperiment:
    def test_payload_merges_row_and_ingests_pairs(self, store_path):
        recorded = record_experiment("demo", _StubResult())
        with ResultsStore(recorded.store_path) as store:
            row = store.run(recorded.run_id)
            assert row.payload["row"] == {"calls": 5, "rate": 0.5}
            metrics = store.metrics(recorded.run_id)
            assert metrics["row.calls"] == 5
            pairs = store.pair_metrics(recorded.run_id, metric="calls")
            assert [(src, dst) for (_, src, dst, _, _, _) in pairs] == [("EU", "NA")]

    def test_consecutive_run_ids_across_opens(self, store_path):
        first, second = (record_experiment("demo", _StubResult()) for _ in range(2))
        assert second.run_id == first.run_id + 1
