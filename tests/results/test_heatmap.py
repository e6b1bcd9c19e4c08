"""Region-pair QoE heatmap export: text grid, CSV, store round-trip."""

from __future__ import annotations

from repro.results import (
    RunKey,
    heatmap_from_pairs,
    heatmap_from_store,
)

PAIRS = {
    "AS->EU": {"calls": 4, "vns": {"delay_ms": {"p50": 95.25}}},
    "EU->AS": {"calls": 3, "vns": {"delay_ms": {"p50": 90.0}}},
    "EU->EU": {"calls": 9, "vns": {"delay_ms": {"p50": 18.5}}},
}


class TestGrid:
    def test_values_and_axes(self):
        grid = heatmap_from_pairs(PAIRS, "delay_ms.p50", "vns")
        assert grid.srcs == ("AS", "EU")
        assert grid.dsts == ("AS", "EU")
        assert grid.value("EU", "EU") == 18.5
        assert grid.value("AS", "AS") is None  # sparse corridor

    def test_pair_level_metric_uses_empty_transport(self):
        grid = heatmap_from_pairs(PAIRS, "calls", "")
        assert grid.value("EU", "AS") == 3.0

    def test_render_text_grid(self):
        grid = heatmap_from_pairs(PAIRS, "delay_ms.p50", "vns")
        text = grid.render()
        lines = text.splitlines()
        assert "delay_ms.p50 (vns)" in lines[0]
        assert lines[1].split() == ["src", "AS", "EU"]
        assert lines[2].split() == ["AS", "-", "95.25"]
        assert lines[3].split() == ["EU", "90.00", "18.50"]

    def test_csv_has_empty_cells_for_missing_corridors(self):
        grid = heatmap_from_pairs(PAIRS, "delay_ms.p50", "vns")
        assert grid.to_csv().splitlines() == [
            "src,AS,EU",
            "AS,,95.250000",
            "EU,90.000000,18.500000",
        ]


class TestStoreRoundTrip:
    def test_store_grid_matches_pairs_grid(self, store):
        run_id = store.record_run(
            RunKey(bench="demo", git_rev="a", recorded_at="2026-01-01T00:00:00Z"),
            {"seed": 0},
            reports={"": {"pairs": PAIRS}},
        )
        direct = heatmap_from_pairs(PAIRS, "delay_ms.p50", "vns")
        stored = heatmap_from_store(
            store, run_id, metric="delay_ms.p50", transport="vns"
        )
        assert stored.values == direct.values
        assert stored.render() == direct.render()
        assert stored.to_csv() == direct.to_csv()
