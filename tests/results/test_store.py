"""Round-trip tests for the sqlite results store."""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.results import (
    CI_GATES,
    HistoryFormatError,
    ResultsStore,
    RunKey,
    StoreSchemaError,
    flatten_metrics,
    perf_trajectory,
)

from .conftest import record_simple

HISTORY = Path(__file__).resolve().parents[2] / "benchmarks/results/history.jsonl"

PAYLOAD = {
    "seed": 7,
    "label": "ignored-string",
    "ok": True,
    "scales": {
        "small": {"calls": 120, "calls_per_s": 456.75},
        "medium": {"calls": 480, "calls_per_s": 512.0},
    },
    "percentiles": [10, 50.5, 90],
}


class TestFlatten:
    def test_numeric_leaves_only(self):
        flat = flatten_metrics(PAYLOAD)
        assert flat["seed"] == 7
        assert flat["scales.small.calls"] == 120
        assert flat["scales.small.calls_per_s"] == 456.75
        assert "label" not in flat
        assert "ok" not in flat  # bools are payload facts, not metrics

    def test_list_elements_are_indexed(self):
        flat = flatten_metrics(PAYLOAD)
        assert flat["percentiles[0]"] == 10
        assert flat["percentiles[1]"] == 50.5


class TestRecordRun:
    def test_round_trip_key_and_payload(self, store):
        key = RunKey(
            bench="demo",
            scale="small",
            seed=7,
            git_rev="abc1234",
            recorded_at="2026-08-07T00:00:00Z",
        )
        run_id = store.record_run(key, PAYLOAD)
        row = store.run(run_id)
        assert row.key == key
        assert row.payload == PAYLOAD
        assert store.latest("demo").id == run_id

    def test_metrics_preserve_intness(self, store):
        run_id = record_simple(
            store, "demo", PAYLOAD, rev="a", recorded_at="2026-01-01T00:00:00Z"
        )
        metrics = store.metrics(run_id)
        assert metrics["scales.small.calls"] == 120
        assert isinstance(metrics["scales.small.calls"], int)
        assert isinstance(metrics["scales.small.calls_per_s"], float)

    def test_recorded_at_required(self, store):
        with pytest.raises(ValueError):
            store.record_run(RunKey(bench="demo", git_rev="a"), {})

    def test_bench_required(self):
        with pytest.raises(ValueError):
            RunKey(bench="")

    def test_filters(self, store):
        for scale in ("small", "medium"):
            record_simple(
                store,
                "demo",
                {"scale_tag": 1},
                rev="a",
                recorded_at="2026-01-01T00:00:00Z",
                scale=scale,
            )
        assert [row.key.scale for row in store.runs("demo")] == ["small", "medium"]
        assert store.latest("demo").key.scale == "medium"
        assert store.latest("other") is None


class TestPairAndPerfTables:
    REPORT = {
        "n_calls": 3,
        "pairs": {
            "EU->NA": {
                "calls": 2,
                "vns": {"delay_ms": {"p50": 80.0, "p95": 120.0}},
                "internet": {"delay_ms": {"p50": 140.0}},
            },
            "NA->EU": {"calls": 1, "vns": {"delay_ms": {"p50": 85.0}}},
        },
    }

    def test_pair_rows_split_by_transport(self, store):
        run_id = store.record_run(
            RunKey(bench="demo", git_rev="a", recorded_at="2026-01-01T00:00:00Z"),
            {"seed": 0},
            reports={"small": self.REPORT},
        )
        rows = store.pair_metrics(run_id, transport="vns", metric="delay_ms.p50")
        assert [(src, dst, value) for (_, src, dst, _, _, value) in rows] == [
            ("EU", "NA", 80.0),
            ("NA", "EU", 85.0),
        ]
        # Pair-level columns (no transport sub-block) land under "".
        bare = store.pair_metrics(run_id, transport="", metric="calls")
        assert {(src, dst): value for (_, src, dst, _, _, value) in bare} == {
            ("EU", "NA"): 2.0,
            ("NA", "EU"): 1.0,
        }

    def test_perf_rows(self, store):
        snapshot = {
            "counters": {"bgp.engine.delivered": 42},
            "timers": {"bgp.engine.run": {"calls": 3, "total_s": 1.5, "cpu_s": 1.2}},
        }
        run_id = store.record_run(
            RunKey(bench="demo", git_rev="a", recorded_at="2026-01-01T00:00:00Z"),
            {"seed": 0},
            perf=snapshot,
        )
        assert store.perf_rows(run_id) == [
            ("counter", "bgp.engine.delivered", 42.0, 0.0, 0.0),
            ("timer", "bgp.engine.run", 3.0, 1.5, 1.2),
        ]


class TestTrajectory:
    def test_points_in_recorded_order(self, store):
        for index, rev in enumerate(("aaa", "bbb", "ccc")):
            record_simple(
                store,
                "demo",
                {"speed": 100 + index},
                rev=rev,
                recorded_at=f"2026-01-0{index + 1}T00:00:00Z",
            )
        header, row = perf_trajectory(store, "demo", metrics=["speed"]).splitlines()[1:]
        assert header.split() == ["metric", "aaa", "bbb", "ccc"]
        assert row.split() == ["speed", "100", "101", "+1.0%", "102", "+1.0%"]

    def test_runs_missing_the_metric_are_skipped(self, store):
        record_simple(
            store, "demo", {"old": 1}, rev="aaa", recorded_at="2026-01-01T00:00:00Z"
        )
        record_simple(
            store, "demo", {"speed": 9}, rev="bbb", recorded_at="2026-01-02T00:00:00Z"
        )
        table = perf_trajectory(store, "demo", metrics=["speed"])
        assert table.splitlines()[-1].split() == ["speed", "-", "9"]


class TestJsonlHistory:
    def test_export_import_reexport_byte_identical(self, store, tmp_path):
        record_simple(
            store,
            "demo",
            PAYLOAD,
            rev="aaa",
            recorded_at="2026-01-01T00:00:00Z",
            seed=7,
        )
        record_simple(
            store,
            "demo",
            {"seed": 8, "calls": 3},
            rev="bbb",
            recorded_at="2026-01-02T00:00:00Z",
            seed=8,
        )
        history = tmp_path / "history.jsonl"
        text = store.export_jsonl()
        history.write_text(text, encoding="utf-8")
        assert len(text.splitlines()) == 2

        with ResultsStore(":memory:") as fresh:
            run_ids = fresh.import_jsonl(history)
            assert len(run_ids) == 2
            assert fresh.export_jsonl() == text
            # Metrics are re-derived from each imported payload.
            assert fresh.metrics(run_ids[0])["scales.small.calls"] == 120

    def test_export_lines_are_canonical_json(self, store):
        record_simple(
            store, "demo", {"b": 2, "a": 1}, rev="aaa",
            recorded_at="2026-01-01T00:00:00Z",
        )
        (line,) = store.export_jsonl().splitlines()
        entry = json.loads(line)
        assert list(entry) == sorted(entry)
        assert entry["payload"] == {"a": 1, "b": 2}

    def test_recorded_reports_and_perf_survive_the_round_trip(self, store, tmp_path):
        """A store seeded by import answers like the one that recorded."""
        run_id = store.record_run(
            RunKey(bench="demo", git_rev="a", recorded_at="2026-01-01T00:00:00Z"),
            PAYLOAD,
            reports={"small": TestPairAndPerfTables.REPORT},
            perf={
                "counters": {"bgp.engine.delivered": 42},
                "timers": {
                    "bgp.engine.run": {"calls": 3, "total_s": 1.5, "cpu_s": 1.2}
                },
            },
        )
        history = tmp_path / "history.jsonl"
        text = store.export_jsonl()
        history.write_text(text, encoding="utf-8")
        with ResultsStore(":memory:") as fresh:
            (copy_id,) = fresh.import_jsonl(history)
            assert fresh.export_jsonl() == text
            assert fresh.metrics(copy_id) == store.metrics(run_id)
            assert fresh.pair_metrics(copy_id) == store.pair_metrics(run_id)
            assert fresh.pair_metrics(copy_id)  # the parent's import had none
            assert fresh.perf_rows(copy_id) == store.perf_rows(run_id)
            assert fresh.perf_rows(copy_id)

    def test_committed_history_round_trips_byte_identical(self, store):
        """history.jsonl is the committed baseline: import -> export is it."""
        run_ids = store.import_jsonl(HISTORY)
        assert store.benches() == (
            "failover",
            "scale",
            "scenario_matrix",
            "steering",
            "workload",
        )
        assert len(run_ids) == 8
        assert store.export_jsonl() == HISTORY.read_text(encoding="utf-8")

    def test_every_ci_gate_resolves_against_the_committed_history(self, store):
        store.import_jsonl(HISTORY)
        for bench, gates in CI_GATES.items():
            metrics = store.metrics(store.latest(bench).id)
            for gate in gates:
                assert gate.name in metrics, f"{bench}: {gate.name}"


class TestDrills:
    """ROADMAP drills: each ends in a typed error, the store unchanged."""

    def test_truncated_history_imports_nothing(self, tmp_path):
        lines = HISTORY.read_text(encoding="utf-8").splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        with ResultsStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(HistoryFormatError, match=r"torn\.jsonl:3:"):
                store.import_jsonl(torn)
            assert store.runs() == []

    @pytest.mark.parametrize(
        "line",
        [
            '{"bench": "demo", "payload": {}}',  # no recorded_at
            '{"recorded_at": "2026-01-01T00:00:00Z", "payload": {}}',  # no bench
            '{"bench": "demo", "recorded_at": "2026-01-01T00:00:00Z"}',  # no payload
            "[1, 2]",
        ],
    )
    def test_line_that_is_not_a_run_entry_is_typed(self, store, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        with pytest.raises(HistoryFormatError, match=r"bad\.jsonl:1:"):
            store.import_jsonl(bad)
        assert store.runs() == []

    def test_newer_schema_refuses_to_open(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultsStore(path) as store:
            record_simple(
                store, "demo", {"a": 1}, rev="a", recorded_at="2026-01-01T00:00:00Z"
            )
        db = sqlite3.connect(path)
        with db:
            db.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        db.close()
        before = path.read_bytes()
        with pytest.raises(StoreSchemaError, match="delete the file and .*import"):
            ResultsStore(path)
        assert path.read_bytes() == before

    def test_version_1_store_refuses_to_open(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        db = sqlite3.connect(path)
        with db:
            db.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            db.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        db.close()
        with pytest.raises(StoreSchemaError, match="'1'"):
            ResultsStore(path)
