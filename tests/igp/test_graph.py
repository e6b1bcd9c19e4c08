"""Unit tests for the IGP graph."""

import pytest

from repro.igp.graph import IgpGraph, IgpLink


class TestIgpLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            IgpLink(a="x", b="x", metric=1.0)
        with pytest.raises(ValueError):
            IgpLink(a="x", b="y", metric=0.0)


class TestIgpGraph:
    def test_add_and_query(self):
        g = IgpGraph()
        g.add_link("a", "b", 5.0)
        assert g.metric("a", "b") == 5.0
        assert g.metric("b", "a") == 5.0
        assert g.neighbors("a") == {"b": 5.0}

    def test_duplicate_link_rejected(self):
        g = IgpGraph()
        g.add_link("a", "b", 5.0)
        with pytest.raises(ValueError):
            g.add_link("b", "a", 7.0)

    def test_self_loop_rejected(self):
        g = IgpGraph()
        with pytest.raises(ValueError):
            g.add_link("a", "a", 1.0)

    def test_unknown_node_raises(self):
        g = IgpGraph()
        with pytest.raises(KeyError):
            g.neighbors("nowhere")

    def test_connectivity(self):
        g = IgpGraph()
        assert g.is_connected()  # empty graph is trivially connected
        g.add_link("a", "b", 1.0)
        assert g.is_connected()
        g.add_node("island")
        assert not g.is_connected()
