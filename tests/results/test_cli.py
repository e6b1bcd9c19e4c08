"""The ``python -m repro.results`` CLI: exit codes and output shapes."""

from __future__ import annotations

import json

from repro.results import ResultsStore, RunKey
from repro.results.__main__ import main


def record_at(path, bench, payload, rev, stamp, *, seed=0, reports=None):
    """One row in the store at ``path``, keyed by an explicit rev and time."""
    key = RunKey(bench=bench, seed=seed, git_rev=rev, recorded_at=stamp)
    with ResultsStore(path) as store:
        store.record_run(key, payload, reports=reports)


def record_rate(path, value, rev, stamp, extra=None):
    payload = {"scales": {"small": {"campaign": {"calls": value}}}}
    if extra:
        payload.update(extra)
    record_at(path, "workload", payload, rev, stamp, seed=7)


class TestCheck:
    def test_clean_history_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        record_rate(path, 100, "rev0", "2026-01-01T00:00:00Z")
        record_rate(path, 100, "rev1", "2026-01-02T00:00:00Z")
        assert main(["check", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "ok" in out

    def test_gated_regression_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        record_rate(path, 100, "rev0", "2026-01-01T00:00:00Z")
        record_rate(path, 90, "rev1", "2026-01-02T00:00:00Z")
        # scales.small.campaign.calls is int-gated: exact compare fails.
        assert main(["check", "--store", str(path)]) == 2
        assert "mismatch" in capsys.readouterr().out

    def test_metric_override_with_direction_and_rtol(self, tmp_path):
        path = tmp_path / "s.sqlite"
        for rev, stamp, value in (
            ("rev0", "2026-01-01T00:00:00Z", 100.0),
            ("rev1", "2026-01-02T00:00:00Z", 94.0),
        ):
            record_at(path, "demo", {"rate": value}, rev, stamp)
        args = ["check", "--store", str(path), "--bench", "demo"]
        assert main([*args, "--metric", "+rate:0.1"]) == 0  # 6% drop < 10%
        assert main([*args, "--metric", "+rate:0.05"]) == 2

    def test_empty_store_is_clean(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        ResultsStore(path).close()
        assert main(["check", "--store", str(path)]) == 0
        assert "no benches" in capsys.readouterr().out


class TestReadingCommands:
    def seed(self, path):
        record_rate(path, 100, "rev0", "2026-01-01T00:00:00Z")
        record_rate(path, 100, "rev1", "2026-01-02T00:00:00Z")

    def test_list(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        self.seed(path)
        assert main(["list", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "rev0" in out and "rev1" in out

    def test_trajectory(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        self.seed(path)
        assert main(
            ["trajectory", "--store", str(path), "--bench", "workload",
             "--metric", "scales.small.campaign.calls"]
        ) == 0
        out = capsys.readouterr().out
        assert "scales.small.campaign.calls" in out
        assert "rev0" in out and "rev1" in out

    def test_heatmap_csv(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        pairs = {"EU->NA": {"vns": {"delay_ms": {"p50": 80.0}}}}
        with ResultsStore(path) as store:
            store.record_run(
                RunKey(bench="workload", git_rev="rev0",
                       recorded_at="2026-01-01T00:00:00Z"),
                {"seed": 7},
                reports={"": {"pairs": pairs}},
            )
        assert main(
            ["heatmap", "--store", str(path), "--bench", "workload", "--csv"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[0] == "src,NA"


class TestHistoryCommands:
    def test_export_import_round_trip(self, tmp_path, capsys):
        src = tmp_path / "src.sqlite"
        self_seed = TestReadingCommands()
        self_seed.seed(src)
        history = tmp_path / "history.jsonl"
        assert main(["export", "--store", str(src), "--out", str(history)]) == 0
        capsys.readouterr()
        dst = tmp_path / "dst.sqlite"
        assert main(["import", "--store", str(dst), str(history)]) == 0
        assert "imported 2 run(s)" in capsys.readouterr().out
        with ResultsStore(dst) as store:
            assert len(store.runs("workload")) == 2

    def test_export_bench_renders_the_latest_payload(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        record_rate(path, 100, "rev0", "2026-01-01T00:00:00Z")
        record_rate(path, 120, "rev1", "2026-01-02T00:00:00Z", extra={"a": 1})
        assert main(["export", "--store", str(path), "--bench", "workload"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {
            "a": 1, "scales": {"small": {"campaign": {"calls": 120}}}
        }
        assert out.startswith('{\n  "a": 1,\n') and out.endswith("}\n")
        assert main(["export", "--store", str(path), "--bench", "nope"]) == 1

    def test_imported_run_renders_the_recorded_heatmap(self, tmp_path, capsys):
        """The CI store (seeded by import) answers like the recording one."""
        src, dst = tmp_path / "src.sqlite", tmp_path / "dst.sqlite"
        pairs = {"EU->NA": {"vns": {"delay_ms": {"p50": 80.0}}}}
        record_at(src, "workload", {"seed": 7}, "rev0", "2026-01-01T00:00:00Z",
                  reports={"": {"pairs": pairs}})
        history = tmp_path / "history.jsonl"
        assert main(["export", "--store", str(src), "--out", str(history)]) == 0
        assert main(["import", "--store", str(dst), str(history)]) == 0
        capsys.readouterr()
        rendered = []
        for path in (src, dst):
            assert main(["heatmap", "--store", str(path), "--bench", "workload"]) == 0
            rendered.append(capsys.readouterr().out)
        assert rendered[0] == rendered[1] and "80.00" in rendered[0]
