"""Unit tests for BGP path attributes."""

import pickle
from dataclasses import replace

import pytest

from repro.bgp.attributes import NO_EXPORT, AsPath, Origin, Route
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")


class TestAsPath:
    def test_prepend(self):
        path = AsPath((2, 3)).prepend(1)
        assert path.asns == (1, 2, 3)
        assert len(path) == 3

    def test_prepend_multiple(self):
        path = AsPath((2,)).prepend(1, count=3)
        assert path.asns == (1, 1, 1, 2)

    def test_prepend_zero_rejected(self):
        with pytest.raises(ValueError):
            AsPath().prepend(1, count=0)

    def test_first_hop_and_origin(self):
        path = AsPath((10, 20, 30))
        assert path.first_hop == 10
        assert path.origin_as == 30

    def test_empty_path(self):
        path = AsPath()
        assert path.first_hop is None
        assert path.origin_as is None
        assert str(path) == "(empty)"

    def test_loop_detection(self):
        assert AsPath((1, 2, 3)).has_loop(2)
        assert not AsPath((1, 2, 3)).has_loop(4)

    def test_iteration_and_contains(self):
        path = AsPath((5, 6))
        assert list(path) == [5, 6]
        assert 5 in path


class TestRoute:
    def make(self, **kwargs) -> Route:
        defaults = dict(prefix=PFX, as_path=AsPath((1, 2)), next_hop="r1")
        defaults.update(kwargs)
        return Route(**defaults)

    def test_defaults(self):
        route = self.make()
        assert route.local_pref == 100
        assert route.origin is Origin.IGP
        assert route.med == 0
        assert not route.ebgp

    def test_neighbor_as(self):
        assert self.make().neighbor_as == 1

    def test_with_communities(self):
        route = self.make().with_communities(NO_EXPORT, "rel:peer")
        assert NO_EXPORT in route.communities
        assert "rel:peer" in route.communities

    def test_with_communities_already_present_is_no_copy(self):
        # The eBGP re-import case: the relationship tag is already there.
        tagged = self.make().with_communities("rel:peer")
        assert tagged.with_communities("rel:peer") is tagged
        assert tagged.with_communities() is tagged
        assert tagged.with_communities("rel:peer", NO_EXPORT) is not tagged

    def test_positional_copies_equal_dataclasses_replace(self):
        # Every field set to a non-default, pairwise distinct value, so a
        # transposed positional argument cannot go unnoticed.
        route = Route(
            prefix=Prefix.parse("198.51.100.0/24"),
            as_path=AsPath((7, 8)),
            next_hop="nh",
            origin=Origin.EGP,
            med=5,
            local_pref=250,
            communities=frozenset({"c"}),
            originator_id="orig",
            cluster_list=("k1",),
            learned_from="peer",
            ebgp=True,
        )
        assert route.with_local_pref(9) == replace(route, local_pref=9)
        assert route.with_communities("d") == replace(
            route, communities=frozenset({"c", "d"})
        )
        assert pickle.dumps(route.with_communities("d", "e")) == pickle.dumps(
            replace(route, communities=route.communities.union(("d", "e")))
        )
        assert route.received("p2", False) == replace(
            route, learned_from="p2", ebgp=False
        )
        assert route.reflected("other", "k2") == replace(
            route, cluster_list=("k2", "k1")
        )
        assert route.sent() == replace(route, learned_from=None, ebgp=False)
        assert route.sent("me", AsPath((1, 7, 8))) == replace(
            route, next_hop="me", as_path=AsPath((1, 7, 8)), learned_from=None, ebgp=False
        )

    def test_received_stamps_metadata(self):
        route = self.make().received(learned_from="peerX", ebgp=True)
        assert route.learned_from == "peerX"
        assert route.ebgp

    def test_reflected_sets_originator_once(self):
        route = self.make().reflected(originator="rA", cluster_id="c1")
        assert route.originator_id == "rA"
        assert route.cluster_list == ("c1",)
        again = route.reflected(originator="rB", cluster_id="c2")
        # ORIGINATOR_ID is set only by the first reflector.
        assert again.originator_id == "rA"
        assert again.cluster_list == ("c2", "c1")

    def test_origin_preference_order(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE

    def test_immutability(self):
        route = self.make()
        with pytest.raises(AttributeError):
            route.local_pref = 500  # type: ignore[misc]
