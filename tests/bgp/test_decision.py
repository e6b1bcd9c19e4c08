"""Unit tests for the RFC 4271 decision process."""

import pytest

from repro.bgp.attributes import Origin, Route
from repro.bgp.decision import best_external, best_route, decision_order
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")


def route(**kwargs) -> Route:
    defaults = dict(
        prefix=PFX,
        as_path=(1, 2),
        next_hop="nh",
        learned_from="peer",
    )
    defaults.update(kwargs)
    return Route(**defaults)


class TestStages:
    def test_empty(self):
        assert best_route([]) is None
        assert decision_order([]) == []

    def test_local_pref_wins_over_shorter_path(self):
        low = route(local_pref=100, as_path=(1,), learned_from="a")
        high = route(local_pref=200, as_path=(1, 2, 3), learned_from="b")
        assert best_route([low, high]) is high

    def test_shorter_as_path(self):
        short = route(as_path=(1, 2), learned_from="a")
        long = route(as_path=(1, 2, 3), learned_from="b")
        assert best_route([long, short]) is short

    def test_origin_tiebreak(self):
        igp = route(origin=Origin.IGP, learned_from="a")
        egp = route(origin=Origin.EGP, learned_from="b")
        incomplete = route(origin=Origin.INCOMPLETE, learned_from="c")
        assert best_route([incomplete, egp, igp]) is igp

    def test_med_within_same_neighbor_as(self):
        low_med = route(med=5, learned_from="a", next_hop="n1")
        high_med = route(med=50, learned_from="b", next_hop="n2")
        assert best_route([high_med, low_med]) is low_med

    def test_med_not_compared_across_neighbor_as(self):
        # Different first-hop AS: MED must not discriminate; the eBGP
        # stage then ties, and IGP metric decides.
        from_as1 = route(as_path=(1, 9), med=50, learned_from="a", next_hop="n1")
        from_as2 = route(as_path=(2, 9), med=5, learned_from="b", next_hop="n2")
        igp_metric = {"n1": 1.0, "n2": 9.0}
        assert best_route([from_as1, from_as2], igp_metric) is from_as1

    def test_ebgp_over_ibgp(self):
        ibgp = route(ebgp=False, learned_from="rr")
        ebgp = route(ebgp=True, learned_from="ext")
        assert best_route([ibgp, ebgp]) is ebgp

    def test_igp_metric_hot_potato(self):
        near = route(next_hop="close", learned_from="a")
        far = route(next_hop="far", learned_from="b")
        igp_metric = {"close": 1.0, "far": 100.0}
        assert best_route([far, near], igp_metric) is near

    def test_cluster_list_length(self):
        direct = route(learned_from="a", cluster_list=("c1",))
        double = route(learned_from="b", cluster_list=("c2", "c1"))
        assert best_route([double, direct]) is direct

    def test_final_deterministic_tiebreak(self):
        a = route(learned_from="aaa")
        b = route(learned_from="bbb")
        assert best_route([b, a]) is a
        assert best_route([a, b]) is a

    def test_stage_order_local_pref_before_ebgp(self):
        # An iBGP route with high LOCAL_PREF beats a local eBGP route:
        # this is exactly how the geo reflector overrides hot potato.
        geo = route(local_pref=2500, ebgp=False, learned_from="rr", next_hop="egress")
        local = route(local_pref=200, ebgp=True, learned_from="ext")
        assert best_route([local, geo]) is geo


class TestBestExternal:
    def test_picks_best_among_ebgp_only(self):
        ext_long = route(ebgp=True, as_path=(1, 2, 3), learned_from="e1")
        ext_short = route(ebgp=True, as_path=(1, 2), learned_from="e2")
        internal = route(ebgp=False, local_pref=9999, learned_from="rr")
        assert best_external([ext_long, internal, ext_short]) is ext_short

    def test_none_when_no_external(self):
        internal = route(ebgp=False, learned_from="rr")
        assert best_external([internal]) is None
