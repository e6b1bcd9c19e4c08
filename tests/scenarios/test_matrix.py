"""Matrix runner tests: grid expansion, determinism, golden wiring."""

import json
from dataclasses import replace

import pytest

from repro.scenarios import GoldenStore, canned_scenario, run_matrix
from repro.scenarios.matrix import _fault_signature


def small(name: str, **kw):
    """A canned spec scaled down for test runtime."""
    return replace(
        canned_scenario(name), n_users=24, calls_per_user_day=1.5, **kw
    )


class TestGrid:
    def test_cells_come_back_in_expansion_order(self):
        result = run_matrix(
            [small("baseline"), small("geo_satellite")],
            seeds=(0, 1),
            workers=1,
        )
        assert [cell.key for cell in result.cells] == [
            "baseline-small-seed0",
            "baseline-small-seed1",
            "geo_satellite-small-seed0",
            "geo_satellite-small-seed1",
        ]

    def test_string_scenarios_resolve_via_registry(self):
        with pytest.raises(KeyError, match="known"):
            run_matrix(["no_such_scenario"])

    def test_cell_lookup_by_key(self):
        result = run_matrix([small("baseline")], workers=1)
        assert result.cell("baseline-small-seed0").scenario == "baseline"
        with pytest.raises(KeyError):
            result.cell("nope")

    def test_unfaulted_scenarios_share_a_fault_signature(self):
        assert _fault_signature(small("baseline")) == _fault_signature(
            small("geo_satellite")
        )
        assert _fault_signature(small("baseline")) == _fault_signature(
            small("pop_exhaustion")
        )
        assert _fault_signature(small("baseline")) != _fault_signature(
            small("regional_outage")
        )

    def test_summary_counts_cells_and_goldens(self, tmp_path):
        result = run_matrix(
            [small("baseline")],
            seeds=(0, 1),
            workers=1,
            golden=tmp_path,
            update_golden=True,
        )
        summary = result.summary()
        assert summary["golden_checked"] == 2
        assert summary["golden_failed"] == 0
        assert len(summary["cells"]) == 2
        json.loads(result.to_json())
        assert "baseline-small-seed0" in result.render()


class TestDeterminism:
    def test_sharded_cells_match_sequential_byte_for_byte(self):
        """The acceptance criterion: pool-sharded == sequential, per cell.

        Two unfaulted scenarios and a faulted one, so both the shared
        pool and the dedicated per-group pool paths are exercised
        against their sequential reruns.
        """
        grid = [
            small("baseline"),
            small("pop_exhaustion"),
            small("regional_outage"),
        ]
        sharded = run_matrix(grid, seeds=(0,), workers=2)
        sequential = run_matrix(grid, seeds=(0,), workers=1)
        assert [c.key for c in sharded.cells] == [c.key for c in sequential.cells]
        assert sharded.sharded and not sequential.sharded
        for a, b in zip(sharded.cells, sequential.cells):
            assert json.dumps(a.report, sort_keys=True) == json.dumps(
                b.report, sort_keys=True
            ), a.key

    def test_repeat_run_is_byte_identical(self):
        grid = [small("geo_satellite")]
        first = run_matrix(grid, workers=1)
        second = run_matrix(grid, workers=1)
        assert json.dumps(first.cells[0].report, sort_keys=True) == json.dumps(
            second.cells[0].report, sort_keys=True
        )


class TestGoldenRegression:
    def test_injected_perturbation_is_caught_with_a_path(self, tmp_path):
        grid = [small("baseline")]
        store = GoldenStore(tmp_path)
        assert run_matrix(grid, workers=1, golden=store, update_golden=True).ok
        # A clean re-run passes against the committed goldens.
        assert run_matrix(grid, workers=1, golden=store).ok
        # Perturb one QoE float by 50% — far past rtol.
        key = "baseline-small-seed0"
        golden = store.load(key)
        pair = next(iter(golden["pairs"]))
        golden["pairs"][pair]["internet"]["delay_ms"]["p50"] *= 1.5
        store.save(key, golden)
        result = run_matrix(grid, workers=1, golden=store)
        assert not result.ok
        (bad,) = result.regressions()
        assert bad.key == key
        (mismatch,) = bad.golden.mismatches
        assert f"pairs.{pair}.internet.delay_ms.p50" in mismatch

    def test_missing_golden_is_a_regression(self, tmp_path):
        result = run_matrix(
            [small("baseline")], workers=1, golden=GoldenStore(tmp_path)
        )
        assert not result.ok
        assert result.regressions()[0].golden.missing

    def test_structural_drift_is_caught(self, tmp_path):
        store = GoldenStore(tmp_path)
        grid = [small("baseline")]
        run_matrix(grid, workers=1, golden=store, update_golden=True)
        key = "baseline-small-seed0"
        golden = store.load(key)
        golden["pairs"]["XX->XX"] = {"calls": 1}
        store.save(key, golden)
        result = run_matrix(grid, workers=1, golden=store)
        assert "missing from report" in result.cells[0].golden.mismatches[0]
