"""Matrix runner tests: grid expansion, determinism, golden wiring."""

import json
from dataclasses import replace

import pytest

from repro.scenarios import GoldenStore, canned_scenario, run_matrix, run_scenario
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
        result = run_matrix([small("baseline")])
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
    def test_cells_match_their_scenario_run_byte_for_byte(self):
        """A cell's report is its spec's own ``run_scenario`` report.

        Two unfaulted scenarios share one world and a faulted one runs
        on its own fault group: grouping cells on one world, faulted
        once per group, changes no cell.
        """
        grid = [
            small("baseline"),
            small("pop_exhaustion"),
            small("regional_outage"),
        ]
        result = run_matrix(grid, seeds=(0,))
        assert [c.key for c in result.cells] == [
            f"{spec.name}-small-seed0" for spec in grid
        ]
        for cell, spec in zip(result.cells, grid):
            alone = run_scenario(replace(spec, seed=0))
            assert json.dumps(cell.report, sort_keys=True) == json.dumps(
                alone.report.to_dict(), sort_keys=True
            ), cell.key

    def test_repeat_run_is_byte_identical(self):
        grid = [small("geo_satellite")]
        first = run_matrix(grid)
        second = run_matrix(grid)
        assert json.dumps(first.cells[0].report, sort_keys=True) == json.dumps(
            second.cells[0].report, sort_keys=True
        )


class TestGoldenRegression:
    def test_injected_perturbation_is_caught_with_a_path(self, tmp_path):
        grid = [small("baseline")]
        store = GoldenStore(tmp_path)
        assert run_matrix(grid, golden=store, update_golden=True).ok
        # A clean re-run passes against the committed goldens.
        assert run_matrix(grid, golden=store).ok
        # Perturb one QoE float by 50% — far past rtol.
        key = "baseline-small-seed0"
        golden = store.load(key)
        pair = next(iter(golden["pairs"]))
        golden["pairs"][pair]["internet"]["delay_ms"]["p50"] *= 1.5
        store.save(key, golden)
        result = run_matrix(grid, golden=store)
        assert not result.ok
        (bad,) = result.regressions()
        assert bad.key == key
        (mismatch,) = bad.golden.mismatches
        assert f"pairs.{pair}.internet.delay_ms.p50" in mismatch

    def test_missing_golden_is_a_regression(self, tmp_path):
        result = run_matrix(
            [small("baseline")], golden=GoldenStore(tmp_path)
        )
        assert not result.ok
        assert result.regressions()[0].golden.missing

    def test_structural_drift_is_caught(self, tmp_path):
        store = GoldenStore(tmp_path)
        grid = [small("baseline")]
        run_matrix(grid, golden=store, update_golden=True)
        key = "baseline-small-seed0"
        golden = store.load(key)
        golden["pairs"]["XX->XX"] = {"calls": 1}
        store.save(key, golden)
        result = run_matrix(grid, golden=store)
        assert "missing from report" in result.cells[0].golden.mismatches[0]
