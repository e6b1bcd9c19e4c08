"""Unit tests for SPF (Dijkstra)."""

import pytest

from repro.igp.graph import IgpGraph
from repro.igp.spf import all_pairs_spf, spf


@pytest.fixture
def square() -> IgpGraph:
    """a-b-d and a-c-d, with the a-c-d side cheaper; plus a-d direct but
    expensive."""
    g = IgpGraph()
    g.add_link("a", "b", 2.0)
    g.add_link("b", "d", 2.0)
    g.add_link("a", "c", 1.0)
    g.add_link("c", "d", 1.0)
    g.add_link("a", "d", 10.0)
    return g


class TestSpf:
    def test_source_distance_zero(self, square):
        result = spf(square, "a")
        assert result.metric_to("a") == 0.0

    def test_shortest_distance(self, square):
        result = spf(square, "a")
        assert result.metric_to("d") == 2.0

    def test_path_reconstruction(self, square):
        result = spf(square, "a")
        assert result.path_to("d") == ["a", "c", "d"]

    def test_unreachable(self, square):
        square.add_node("island")
        result = spf(square, "a")
        assert result.metric_to("island") == float("inf")
        assert result.path_to("island") is None

    def test_unknown_source_raises(self, square):
        with pytest.raises(KeyError):
            spf(square, "nowhere")

    def test_deterministic_tiebreak(self):
        g = IgpGraph()
        g.add_link("s", "x", 1.0)
        g.add_link("s", "y", 1.0)
        g.add_link("x", "t", 1.0)
        g.add_link("y", "t", 1.0)
        # Two equal paths; tie broken by node id => via "x".
        assert spf(g, "s").path_to("t") == ["s", "x", "t"]

    def test_all_pairs(self, square):
        results = all_pairs_spf(square)
        assert set(results) == {"a", "b", "c", "d"}
        assert results["d"].metric_to("a") == results["a"].metric_to("d")

    def test_triangle_inequality(self, square):
        results = all_pairs_spf(square)
        nodes = square.nodes()
        for x in nodes:
            for y in nodes:
                for z in nodes:
                    assert results[x].metric_to(y) <= (
                        results[x].metric_to(z) + results[z].metric_to(y) + 1e-9
                    )
