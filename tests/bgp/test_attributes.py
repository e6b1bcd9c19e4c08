"""Unit tests for BGP path attributes."""

import pickle

import pytest

from repro.bgp import attributes
from repro.bgp.attributes import DEFAULT_LOCAL_PREF, NO_EXPORT, Origin, Route
from repro.bgp.messages import Update, Withdraw
from repro.bgp.policy import RELATIONSHIP_COMMUNITY, RELATIONSHIP_LOCAL_PREF
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.geo.coords import GeoPoint
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix
from repro.net.relationships import Relationship
from repro.vns.geo_rr import GeoRouteReflector
from repro.vns.management import FORCED_EXIT_LP, ManagementInterface
from repro.vns.network import parse_external_peer_id

PFX = Prefix.parse("203.0.113.0/24")


class TestAsPath:
    """The AS_PATH attribute is a plain tuple of ASNs, the neighbour first:
    a speaker prepends its AS on eBGP export and rejects a path that
    already holds it."""

    def test_prepend(self):
        router = BgpRouter("r1", 1)
        session = Session("x2", SessionType.EBGP, 2)
        router.add_session(session)
        best = Route(PFX, (5, 3), "x5", learned_from="x5", ebgp=True)
        sent = router._ebgp_advertisement(session, best)
        assert sent.as_path == (1, 5, 3)
        assert type(sent.as_path) is tuple

    def test_prepend_multiple(self):
        # Each eBGP hop prepends its own AS: AS 1 originates, 2 and 3 relay.
        routers = [BgpRouter(f"r{asn}", asn) for asn in (1, 2, 3, 4)]
        for a, b in zip(routers, routers[1:]):
            a.add_session(Session(b.router_id, SessionType.EBGP, b.asn))
            b.add_session(Session(a.router_id, SessionType.EBGP, a.asn))
        messages = routers[0].originate(PFX)
        for router in routers[1:]:
            messages = router.process_batch(
                [m for m in messages if m.receiver == router.router_id]
            )
        assert routers[-1].best(PFX).as_path == (3, 2, 1)

    def test_first_hop_and_origin(self, small_world):
        # On a built world every eBGP-learned best names the neighbour it
        # came from at its head and the prefix's origin AS at its tail.
        topology = small_world.service.topology
        checked = 0
        for router in small_world.service.network.border_routers.values():
            for route in router.loc_rib.values():
                if route.ebgp:
                    assert route.neighbor_as == parse_external_peer_id(route.learned_from)[0]
                    assert route.as_path[-1] == topology.origin_of[route.prefix]
                    checked += 1
        assert checked > 100

    def test_empty_path(self):
        router = BgpRouter("r1", 1)
        router.originate(PFX)
        originated = router.best(PFX)
        assert originated.as_path == ()
        assert originated.neighbor_as is None
        assert str(originated) == "203.0.113.0/24 via r1 lp=100 path=[(empty)]"

    def test_loop_detection(self):
        router = BgpRouter("r2", 2)
        router.add_session(Session("x1", SessionType.EBGP, 1))
        router.process(Update("x1", "r2", Route(PFX, (1, 2, 3), "x1")))
        assert router.best(PFX) is None
        router.process(Update("x1", "r2", Route(PFX, (1, 4), "x1")))
        assert router.best(PFX).as_path == (1, 4)

    def test_iteration_and_contains(self):
        # ``Route.__str__`` renders the path in order, space-separated.
        assert str(Route(PFX, (5, 6), "r1")) == "203.0.113.0/24 via r1 lp=100 path=[5 6]"


class TestRoute:
    def make(self, **kwargs) -> Route:
        defaults = dict(prefix=PFX, as_path=(1, 2), next_hop="r1")
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

    def test_positional_copies_equal_replace(self):
        # Every field set to a non-default, pairwise distinct value, so a
        # transposed positional argument cannot go unnoticed.
        route = Route(
            prefix=Prefix.parse("198.51.100.0/24"),
            as_path=(7, 8),
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

        def same(a: Route, b: Route) -> bool:
            # Pickle bytes, not ``==``: they also see the class and every field.
            return pickle.dumps(a) == pickle.dumps(b)

        assert same(route.with_local_pref(9), route._replace(local_pref=9))
        assert same(route.with_communities("d"), route._replace(communities=frozenset({"c", "d"})))
        assert same(
            route.with_communities("d", "e"),
            route._replace(communities=route.communities.union(("d", "e"))),
        )
        assert same(route.received("p2", False), route._replace(learned_from="p2", ebgp=False))
        assert same(route.reflected("other", "k2"), route._replace(cluster_list=("k2", "k1")))
        assert same(
            route.imported(9, frozenset({"d"}), "p2", False),
            route._replace(
                local_pref=9, communities=frozenset({"d"}), learned_from="p2", ebgp=False
            ),
        )
        assert same(route.sent(), route._replace(learned_from=None, ebgp=False))
        assert same(
            route.sent("me", (1, 7, 8)),
            route._replace(
                next_hop="me", as_path=(1, 7, 8), learned_from=None, ebgp=False
            ),
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


#: One of each per-message value type, every field set.
VALUES = (
    Route(
        prefix=Prefix.parse("198.51.100.0/24"),
        as_path=(7, 8),
        next_hop="nh",
        origin=Origin.EGP,
        med=5,
        local_pref=250,
        communities=frozenset({"c"}),
        originator_id="orig",
        cluster_list=("k1",),
        learned_from="peer",
        ebgp=True,
    ),
    Update(sender="a", receiver="b", route=Route(PFX, (1,), "a")),
    Withdraw(sender="a", receiver="b", prefix=PFX),
)


class TestValueTypes:
    """``Route``, ``Update`` and ``Withdraw`` are tuples: immutable,
    picklable, hashed as the tuple of their fields."""

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_rejects_attribute_assignment(self, value):
        for name in (*value._fields, "anything"):
            with pytest.raises(AttributeError):
                setattr(value, name, "x")

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
        assert [getattr(copy, n) for n in value._fields] == list(value)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_hash_is_the_field_tuples(self, value):
        assert isinstance(value, tuple)
        assert hash(value) == hash(tuple(value))
        assert value == tuple(value)

    def test_repr_is_pinned(self):
        assert repr(Route(PFX, (1, 2), "r1")) == (
            "Route(prefix=Prefix(network=3405803776, length=24), "
            "as_path=(1, 2), next_hop='r1', origin=<Origin.IGP: 0>, "
            "med=0, local_pref=100, communities=frozenset(), originator_id=None, "
            "cluster_list=(), learned_from=None, ebgp=False)"
        )

    def test_converged_ribs_hold_plain_tuple_paths(self, small_world):
        routers = small_world.service.network.engine.routers.values()
        routes = [route for router in routers for route in router.loc_rib.values()]
        for router in routers:
            for rib in (router.adj_rib_in, router.adj_rib_out):
                routes += [r for peers in rib._routes.values() for r in peers.values()]
        assert len(routes) > 1000
        for route in routes:
            assert type(route.as_path) is tuple
            assert all(type(asn) is int for asn in route.as_path)
            assert hash(route) == hash(tuple(route))

    def test_frozen_service_pickle_names_no_path_wrapper(self, small_world):
        blob = pickle.dumps(small_world.service.freeze(), protocol=pickle.HIGHEST_PROTOCOL)
        assert b"Route" in blob
        assert b"AsPath" not in blob


#: Every field set to a non-default, pairwise distinct value.
DISTINCT = Route(
    prefix=Prefix.parse("198.51.100.0/24"),
    as_path=(7, 8),
    next_hop="AMS-r1",
    origin=Origin.EGP,
    med=5,
    local_pref=250,
    communities=frozenset({"c"}),
    originator_id="orig",
    cluster_list=("k1",),
    learned_from="peer",
    ebgp=True,
)
LOCAL_ASN = 65000
RELATIONSHIPS = {
    100: Relationship.PROVIDER,
    200: Relationship.PEER,
    300: Relationship.CUSTOMER,
}


def old_chain(route: Route, session: Session, relationships, reflector=None) -> Route | None:
    """Import as a copy per step: ``with_local_pref``, the relationship
    policy (``with_communities`` then ``with_local_pref``), ``received``,
    then the geo rewrite and its management overrides."""
    if session.is_ebgp:
        route = route.with_local_pref(DEFAULT_LOCAL_PREF)
        if relationships is not None:
            relationship = relationships.get(session.peer_asn)
            if relationship is None:
                return None
            route = route.with_communities(RELATIONSHIP_COMMUNITY[relationship])
            route = route.with_local_pref(RELATIONSHIP_LOCAL_PREF[relationship])
    route = route.received(learned_from=session.peer_id, ebgp=session.is_ebgp)
    if reflector is None or not session.is_ibgp:
        return route
    management = reflector.management
    if management is not None:
        if route.prefix in management._geo_exempt:
            return route
        pop_code = management._forced_exit.get(route.prefix)
        if pop_code is not None and route.next_hop.startswith(f"{pop_code}-"):
            return route._replace(local_pref=FORCED_EXIT_LP)
    return reflector.assign_geo_preference_reference(route)


def field_values(route: Route | None) -> list | None:
    return None if route is None else [getattr(route, name) for name in Route._fields]


def count_constructions(monkeypatch) -> list[int]:
    """Count every ``Route`` built from here on, by each way there is to
    build one: the class, ``_make`` (which ``_replace`` calls) and the
    copy methods' direct tuple construction."""
    built = [0]
    new, make, direct = Route.__new__, Route._make.__func__, attributes._new

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def counting_make(cls, iterable):
        built[0] += 1
        return make(cls, iterable)

    def counting_direct(cls, values):
        built[0] += cls is Route
        return direct(cls, values)

    monkeypatch.setattr(Route, "__new__", counting_new)
    monkeypatch.setattr(Route, "_make", classmethod(counting_make))
    monkeypatch.setattr(attributes, "_new", counting_direct)
    return built


def geo_reflector(management=None) -> GeoRouteReflector:
    geoip = GeoIPDatabase()
    geoip.register(DISTINCT.prefix, GeoPoint(51.9, 4.5), "NL")
    geoip.register(Prefix.parse("192.0.2.0/24"), GeoPoint(1.3, 103.8), "SG")
    return GeoRouteReflector(
        "RR",
        LOCAL_ASN,
        geoip=geoip,
        router_locations={"AMS-r1": GeoPoint(52.37, 4.90), "SIN-r1": GeoPoint(1.35, 103.82)},
        management=management,
    )


class TestOneCopyImport:
    """``BgpRouter._import`` builds the Adj-RIB-In route in one construction,
    equal field for field to the copy-per-step chain it replaced."""

    EBGP = [
        Session("x100", SessionType.EBGP, 100),
        Session("x200", SessionType.EBGP, 200),
        Session("x300", SessionType.EBGP, 300),
        Session("x999", SessionType.EBGP, 999),  # no relationship: rejected
    ]
    IBGP = Session("AMS-r1", SessionType.IBGP, LOCAL_ASN, rr_client=True)

    @pytest.mark.parametrize("session", EBGP + [IBGP], ids=lambda s: s.peer_id)
    @pytest.mark.parametrize("policy", ["relationship", "accept-all"])
    def test_border_import_equals_the_chain(self, session, policy, monkeypatch):
        relationships = RELATIONSHIPS if policy == "relationship" else None
        router = BgpRouter("r1", LOCAL_ASN, relationships=relationships)
        expected = old_chain(DISTINCT, session, relationships)
        built = count_constructions(monkeypatch)
        imported = router._import(DISTINCT, session)
        assert field_values(imported) == field_values(expected)
        assert built[0] == (0 if expected is None else 1)

    @pytest.mark.parametrize(
        "wire",
        [
            DISTINCT,  # geo LOCAL_PREF assigned
            DISTINCT._replace(next_hop="nowhere"),  # egress location unknown
            DISTINCT._replace(prefix=Prefix.parse("10.9.0.0/16")),  # GeoIP miss
        ],
        ids=["assigned", "no-location", "no-geoip"],
    )
    def test_geo_reflector_import_equals_the_chain(self, wire, monkeypatch):
        reflector, oracle = geo_reflector(), geo_reflector()
        expected = old_chain(wire, self.IBGP, None, oracle)
        built = count_constructions(monkeypatch)
        imported = reflector._import(wire, self.IBGP)
        assert field_values(imported) == field_values(expected)
        assert built[0] == 1
        assert reflector.stats == oracle.stats

    @pytest.mark.parametrize("override", ["forced-here", "forced-elsewhere", "exempt"])
    def test_management_overrides_equal_the_chain(self, override, monkeypatch):
        managements = ManagementInterface(), ManagementInterface()
        for management in managements:
            if override == "forced-here":
                management.force_exit(DISTINCT.prefix, "AMS")
            elif override == "forced-elsewhere":
                management.force_exit(DISTINCT.prefix, "SIN")
            else:
                management.exempt_from_geo(DISTINCT.prefix)
        reflector, oracle = geo_reflector(managements[0]), geo_reflector(managements[1])
        expected = old_chain(DISTINCT, self.IBGP, None, oracle)
        built = count_constructions(monkeypatch)
        imported = reflector._import(DISTINCT, self.IBGP)
        assert field_values(imported) == field_values(expected)
        assert built[0] == 1
