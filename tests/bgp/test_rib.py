"""Unit tests for the RIB structures."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import Route
from repro.bgp.rib import AdjRib
from repro.bgp.router import BgpRouter
from repro.net.addressing import Prefix

P1 = Prefix.parse("203.0.113.0/24")
P2 = Prefix.parse("198.51.100.0/24")


def route(prefix=P1, peer="a") -> Route:
    return Route(prefix=prefix, as_path=(1,), next_hop=peer)


class TestAdjRib:
    def test_update_and_route(self):
        rib = AdjRib()
        rib.update("a", route())
        assert rib.route("a", P1) is not None
        assert rib.route("b", P1) is None

    def test_routes_for_collects_all_peers(self):
        rib = AdjRib()
        rib.update("a", route(peer="a"))
        rib.update("b", route(peer="b"))
        rib.update("b", route(prefix=P2, peer="b"))
        assert len(rib.routes_for(P1)) == 2
        assert len(rib.routes_for(P2)) == 1

    def test_withdraw(self):
        rib = AdjRib()
        rib.update("a", route())
        removed = rib.withdraw("a", P1)
        assert removed is not None
        assert rib.withdraw("a", P1) is None
        assert rib.routes_for(P1) == []

    def test_prefixes_union(self):
        rib = AdjRib()
        rib.update("a", route())
        rib.update("b", route(prefix=P2))
        assert rib.prefixes() == {P1, P2}

    def test_drop_peer(self):
        rib = AdjRib()
        rib.update("a", route())
        rib.update("a", route(prefix=P2))
        dropped = rib.drop_peer("a")
        assert set(dropped) == {P1, P2}
        assert len(rib) == 0

    def test_len_counts_routes(self):
        rib = AdjRib()
        rib.update("a", route())
        rib.update("b", route())
        assert len(rib) == 2


class PeerMajorRib:
    """The reference: peer -> {prefix: route}, the obvious layout."""

    def __init__(self) -> None:
        self.routes: dict[str, dict[Prefix, Route]] = {}

    def update(self, peer, route):
        self.routes.setdefault(peer, {})[route.prefix] = route

    def withdraw(self, peer, prefix):
        return self.routes.get(peer, {}).pop(prefix, None)

    def drop_peer(self, peer):
        return self.routes.pop(peer, {})


PEERS = ("a", "b", "c")
PREFIXES = (P1, P2, Prefix.parse("192.0.2.0/24"))
NEXT_HOPS = ("n1", "n2", "n3")

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.sampled_from(PEERS),
            st.sampled_from(PREFIXES),
            st.sampled_from(NEXT_HOPS),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(st.just("withdraw"), st.sampled_from(PEERS), st.sampled_from(PREFIXES)),
        st.tuples(st.just("drop_peer"), st.sampled_from(PEERS)),
    ),
    max_size=40,
)


def assert_agrees(rib: AdjRib, model: PeerMajorRib) -> None:
    for peer in PEERS:
        held = model.routes.get(peer, {})
        for prefix in PREFIXES:
            assert rib.route(peer, prefix) == held.get(prefix)
        routes_from = rib.routes_from(peer)
        assert routes_from == held
        routes_from[P1] = route(peer="junk")  # a copy: the RIB must not see it
    for prefix in PREFIXES:
        routes_for = rib.routes_for(prefix)
        expected = [held[prefix] for held in model.routes.values() if prefix in held]
        assert len(routes_for) == len(expected)
        assert set(routes_for) == set(expected)
        routes_for.append(route(peer="junk"))  # the decision appends originations
    assert rib.prefixes() == {p for held in model.routes.values() for p in held}
    for size in range(len(NEXT_HOPS) + 1):
        for next_hops in combinations(NEXT_HOPS, size):
            assert rib.prefixes_via(frozenset(next_hops)) == {
                prefix
                for held in model.routes.values()
                for prefix, r in held.items()
                if r.next_hop in next_hops
            }
    assert len(rib) == sum(len(held) for held in model.routes.values())


class TestAdjRibModel:
    @given(operations)
    @settings(max_examples=200)
    def test_prefix_index_agrees_with_peer_major_reference(self, ops):
        """Every read of the prefix-indexed RIB equals the peer-major
        reference's after every step, and the removals return equal state."""
        rib, model = AdjRib(), PeerMajorRib()
        for op, peer, *args in ops:
            if op == "update":
                prefix, next_hop, path_len = args
                r = Route(prefix=prefix, as_path=(1,) * path_len, next_hop=next_hop)
                rib.update(peer, r)
                model.update(peer, r)
            elif op == "withdraw":
                assert rib.withdraw(peer, args[0]) == model.withdraw(peer, args[0])
            else:
                assert rib.drop_peer(peer) == model.drop_peer(peer)
            assert_agrees(rib, model)


class TestLocRib:
    """A speaker's Loc-RIB is a plain dict, prefix -> best route, written
    only by its decision process."""

    def test_set_and_get(self):
        router = BgpRouter("r1", 1)
        router.originate(P1)
        assert type(router.loc_rib) is dict
        assert router.loc_rib[P1] is router.best(P1) is router.originated[P1]
        assert len(router.loc_rib) == 1

    def test_clear(self):
        router = BgpRouter("r1", 1)
        router.originate(P1)
        router.withdraw_origination(P1)
        assert P1 not in router.loc_rib
        assert router.best(P1) is None

    def test_items_and_prefixes(self):
        router = BgpRouter("r1", 1)
        router.originate(P1)
        router.originate(P2)
        assert set(router.loc_rib) == {P1, P2}
        assert dict(router.loc_rib.items()) == router.originated
