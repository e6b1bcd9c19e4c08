"""The unified ``record()`` write path: one call, one store row."""

from __future__ import annotations

import json

from repro.results import (
    GIT_REV_ENV,
    STORE_ENV,
    ResultsStore,
    default_store_path,
    record,
    record_experiment,
)

class TestStoreRouting:
    def test_explicit_store_path(self, tmp_path):
        path = tmp_path / "results.sqlite"
        recorded = record(
            "demo",
            {"calls": 3},
            store=path,
            scale="small",
            seed=7,
            rev="abc1234",
            recorded_at="2026-01-01T00:00:00Z",
        )
        assert recorded.run_id is not None
        assert recorded.store_path == path
        with ResultsStore(path) as store:
            row = store.latest("demo")
            assert row.id == recorded.run_id
            assert row.key.scale == "small"
            assert row.key.seed == 7
            assert store.metrics(row.id)["calls"] == 3

    def test_env_disable_skips_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, "off")
        assert default_store_path() is None
        recorded = record(
            "demo", {"calls": 1}, rev="abc", recorded_at="2026-01-01T00:00:00Z"
        )
        assert recorded.run_id is None
        assert recorded.store_path is None

    def test_env_redirect(self, monkeypatch, tmp_path):
        target = tmp_path / "redirected.sqlite"
        monkeypatch.setenv(STORE_ENV, str(target))
        assert default_store_path() == target
        record("demo", {"calls": 1}, rev="abc",
               recorded_at="2026-01-01T00:00:00Z")
        with ResultsStore(target) as store:
            assert store.latest("demo") is not None

    def test_git_rev_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(GIT_REV_ENV, "ci_head")
        recorded = record(
            "demo", {"calls": 1}, store=tmp_path / "s.sqlite",
            recorded_at="2026-01-01T00:00:00Z",
        )
        assert recorded.key.git_rev == "ci_head"


class _StubResult:
    """A minimal uniform-API experiment result."""

    def render(self) -> str:
        return "stub"

    def to_row(self) -> dict:
        return {"calls": 5, "rate": 0.5}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {"report": {"pairs": {"EU->NA": {"calls": 5}}}},
            indent=indent,
            sort_keys=True,
        )


class TestRecordExperiment:
    def test_payload_merges_row_and_ingests_pairs(self, tmp_path):
        recorded = record_experiment(
            "demo", _StubResult(), store=tmp_path / "s.sqlite",
            rev="abc", recorded_at="2026-01-01T00:00:00Z",
        )
        with ResultsStore(recorded.store_path) as store:
            row = store.run(recorded.run_id)
            assert row.payload["row"] == {"calls": 5, "rate": 0.5}
            metrics = store.metrics(recorded.run_id)
            assert metrics["row.calls"] == 5
            pairs = store.pair_metrics(recorded.run_id, metric="calls")
            assert [(src, dst) for (_, src, dst, _, _, _) in pairs] == [("EU", "NA")]

    def test_consecutive_run_ids_across_opens(self, tmp_path):
        path = tmp_path / "s.sqlite"
        first, second = (
            record_experiment("demo", _StubResult(), store=path, rev="abc")
            for _ in range(2)
        )
        assert second.run_id == first.run_id + 1
