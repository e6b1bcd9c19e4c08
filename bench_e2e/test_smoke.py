"""Smoke test of the benchmark itself, at ``--quick`` (SMALL) scale.

Run it by path — ``python -m pytest bench_e2e/test_smoke.py -q`` — it is
outside ``pyproject.toml``'s ``testpaths`` on purpose (the tier-1 suite
must not spawn benchmark processes).  Per workload it makes one untraced
and two traced quick runs through the driver's command line and checks
the output contract, the correctness invariants, and that every count
metric repeats exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from bench_e2e import metrics  # noqa: E402
from bench_e2e.cli import WORKLOAD_NAMES  # noqa: E402
from bench_e2e.runner import METRIC_NAME  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quick_run(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    """(the driver's last-line object, the full run record)."""
    done = subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", "3", "--seconds", "1"]
        + ["--trace", str(trace), "--quick", "--out", str(out)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
    return json.loads(done.stdout.splitlines()[-1]), record


def test_benchmark_json_matches_the_catalogue() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["bench_e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        spec[:3] for spec in metrics.PER_LAYER
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) for name in names)
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_workload(workload: str, tmp_path: Path) -> None:
    line, untraced = quick_run(workload, 0, tmp_path / "untraced.jsonl")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in line["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())

    first, traced = quick_run(workload, 1, tmp_path / "traced-1.jsonl")
    second, _ = quick_run(workload, 1, tmp_path / "traced-2.jsonl")
    for traced_line in (first, second):
        assert traced_line["correct"] is True and traced_line["failed"] == 0
        assert {
            name: entry["unit"] for name, entry in traced_line["metrics"].items()
        } == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["metrics"]["trace.coverage_ratio"]["value"] >= 0.95
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0

    # Stage by stage or in one call, traced or not: the same simulated world.
    assert traced["invariants"] == untraced["invariants"]
    assert (REPO_ROOT / traced["trace"]["path"]).is_file()

    # Counts of simulated work are host-independent: they repeat exactly.
    for name, unit, _better, _source in metrics.PER_LAYER:
        if unit in metrics.EXACT_UNITS:
            assert (
                first["metrics"][name]["value"] == second["metrics"][name]["value"]
            ), name
