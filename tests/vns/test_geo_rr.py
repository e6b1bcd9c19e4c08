"""Unit tests for the geo-based route reflector."""

import pytest

from repro.bgp.attributes import Route
from repro.bgp.session import Session, SessionType
from repro.geo.coords import GeoPoint
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix
from repro.vns.geo_rr import (
    GEO_LP_BASE,
    GeoRouteReflector,
    linear_lp,
    stepped_lp,
)

ASN = 65000
PFX = Prefix.parse("203.0.113.0/24")
AMSTERDAM = GeoPoint(52.37, 4.90)
SINGAPORE = GeoPoint(1.35, 103.82)


def make_reflector(geoip=None) -> GeoRouteReflector:
    if geoip is None:
        geoip = GeoIPDatabase()
        geoip.register(PFX, GeoPoint(51.9, 4.5), "NL")
    rr = GeoRouteReflector(
        "RR",
        ASN,
        geoip=geoip,
        router_locations={"A": AMSTERDAM, "B": SINGAPORE},
    )
    for client in ("A", "B"):
        rr.add_session(
            Session(
                peer_id=client,
                session_type=SessionType.IBGP,
                peer_asn=ASN,
                rr_client=True,
            )
        )
    return rr


def ibgp_route(next_hop: str) -> Route:
    return Route(prefix=PFX, as_path=(100, 9), next_hop=next_hop)


class TestLpFunctions:
    def test_linear_monotone_decreasing(self):
        assert linear_lp(0) > linear_lp(1000) > linear_lp(10_000) >= linear_lp(30_000)

    def test_linear_always_above_default(self):
        for d in (0, 500, 5_000, 20_037, 50_000):
            assert linear_lp(d) >= GEO_LP_BASE > 100

    def test_linear_clamps_negative(self):
        assert linear_lp(-5) == linear_lp(0)

    def test_stepped_buckets(self):
        assert stepped_lp(0) == stepped_lp(100)  # same 500 km bucket
        assert stepped_lp(0) > stepped_lp(600)

    def test_stepped_above_default(self):
        assert stepped_lp(25_000) >= GEO_LP_BASE


class TestGeoAssignment:
    def test_closer_egress_gets_higher_pref(self):
        rr = make_reflector()
        from_a = rr.assign_geo_preference(ibgp_route("A"))
        from_b = rr.assign_geo_preference(ibgp_route("B"))
        assert from_a.local_pref > from_b.local_pref
        assert from_a.local_pref > 1000

    def test_unknown_router_location_left_alone(self):
        rr = make_reflector()
        route = rr.assign_geo_preference(ibgp_route("unknown-router"))
        assert route.local_pref == 100
        assert rr.stats["no_location"] == 1

    def test_geoip_miss_falls_back_to_default(self):
        rr = make_reflector(geoip=GeoIPDatabase())
        route = rr.assign_geo_preference(ibgp_route("A"))
        assert route.local_pref == 100
        assert rr.stats["no_geoip"] == 1

    def test_transform_applies_on_ibgp_import(self):
        rr = make_reflector()
        session = rr.session_to("A")
        assert rr.import_local_pref(ibgp_route("A"), session, 100) > 1000
        assert rr.stats["assigned"] == 1

    def test_reflection_prefers_geo_closest(self):
        rr = make_reflector()
        from repro.bgp.messages import Update

        rr.process(Update(sender="B", receiver="RR", route=ibgp_route("B")))
        out = rr.process(Update(sender="A", receiver="RR", route=ibgp_route("A")))
        # After hearing A (closer to the NL prefix), the reflected best
        # must point at A.
        assert rr.best(PFX).next_hop == "A"
        assert any(
            getattr(m, "route", None) is not None and m.route.next_hop == "A"
            for m in out
        )

    def test_custom_lp_function(self):
        geoip = GeoIPDatabase()
        geoip.register(PFX, GeoPoint(51.9, 4.5), "NL")
        rr = GeoRouteReflector(
            "RR",
            ASN,
            geoip=geoip,
            router_locations={"A": AMSTERDAM},
            lp_function=lambda d: 7777,
        )
        assert rr.assign_geo_preference(ibgp_route("A")).local_pref == 7777


class TestOptimisedHotPath:
    """The memoized fast path must be invisible except for speed."""

    def test_matches_reference_implementation(self, small_world):
        rr = make_reflector()
        ref = make_reflector()
        for next_hop in ("A", "B"):
            fast = rr.assign_geo_preference(ibgp_route(next_hop))
            slow = ref.assign_geo_preference_reference(ibgp_route(next_hop))
            assert fast.local_pref == slow.local_pref
        # Every reflector x egress x GeoIP entry of a built world, under
        # both f(d): fresh reflectors over its database and egress map.
        checked = 0
        for world_rr in small_world.service.deployment.network.reflectors.values():
            for lp_function in (linear_lp, stepped_lp):
                rr, ref = (
                    GeoRouteReflector(
                        world_rr.router_id,
                        ASN,
                        geoip=world_rr.geoip,
                        router_locations=world_rr.router_locations,
                        lp_function=lp_function,
                    )
                    for _ in range(2)
                )
                for next_hop in world_rr.router_locations:
                    for prefix in world_rr.geoip.prefixes():
                        route = Route(prefix=prefix, as_path=(100, 9), next_hop=next_hop)
                        slow = ref.assign_geo_preference_reference(route).local_pref
                        assert rr.geo_local_pref(route, 100) == slow
                        checked += 1
        assert checked > 2 * 2 * 20 * 200

    def test_memo_hit_returns_same_decision(self):
        rr = make_reflector()
        first = rr.assign_geo_preference(ibgp_route("A"))
        second = rr.assign_geo_preference(ibgp_route("A"))  # memo hit
        assert second.local_pref == first.local_pref

    def test_no_copy_when_pref_unchanged(self):
        rr = make_reflector()
        assigned = rr.assign_geo_preference(ibgp_route("A"))
        again = rr.assign_geo_preference(assigned)
        assert again is assigned  # LOCAL_PREF already correct: no replace()

    def test_memo_invalidated_by_geoip_mutation(self):
        rr = make_reflector()
        before = rr.assign_geo_preference(ibgp_route("A")).local_pref
        rr.geoip.override(PFX, location=GeoPoint(1.29, 103.85))  # move to SG
        after = rr.assign_geo_preference(ibgp_route("A")).local_pref
        assert after < before  # Amsterdam egress is now far away

    def test_memo_handles_registration_after_miss(self):
        rr = make_reflector(geoip=GeoIPDatabase())
        assert rr.assign_geo_preference(ibgp_route("A")).local_pref == 100
        rr.geoip.register(PFX, GeoPoint(51.9, 4.5), "NL")
        assert rr.assign_geo_preference(ibgp_route("A")).local_pref > 1000


class TestStatsCounters:
    """All five counters, including the management-hook paths."""

    def test_assigned_counter(self):
        rr = make_reflector()
        rr.assign_geo_preference(ibgp_route("A"))
        assert rr.stats["assigned"] == 1

    def test_no_location_counter(self):
        rr = make_reflector()
        rr.assign_geo_preference(ibgp_route("nowhere"))
        assert rr.stats["no_location"] == 1
        assert rr.stats["assigned"] == 0

    def test_no_geoip_counter(self):
        rr = make_reflector(geoip=GeoIPDatabase())
        rr.assign_geo_preference(ibgp_route("A"))
        assert rr.stats["no_geoip"] == 1
        assert rr.stats["assigned"] == 0

    def test_exempt_counter_via_management_hook(self):
        from repro.vns.management import ManagementInterface

        management = ManagementInterface()
        management.exempt_from_geo(PFX)
        rr = make_reflector()
        rr.management = management
        session = rr.session_to("A")
        # untouched: default behaviour
        assert rr.import_local_pref(ibgp_route("A"), session, 100) == 100
        assert rr.stats["exempt"] == 1
        assert rr.stats["assigned"] == 0

    def test_forced_counter_via_management_hook(self):
        from repro.vns.management import FORCED_EXIT_LP, ManagementInterface

        management = ManagementInterface()
        management.force_exit(PFX, "A")
        rr = make_reflector()
        rr.management = management
        session = rr.session_to("A")
        # Matching egress: pinned at the forced preference.
        pinned = rr.import_local_pref(
            Route(prefix=PFX, as_path=(100, 9), next_hop="A-r1"), session, 100
        )
        assert pinned == FORCED_EXIT_LP
        assert rr.stats["forced"] == 1
        # Non-matching egress: falls through to the geo assignment.
        assert rr.import_local_pref(ibgp_route("B"), session, 100) > 1000
        assert rr.stats["forced"] == 2
        assert rr.stats["assigned"] == 1

    def test_memoization_does_not_skew_counters(self):
        # Repeated assignments of the same (egress, prefix) must count
        # each call, memo hit or not — and misses are never memoized.
        rr = make_reflector()
        for _ in range(5):
            rr.assign_geo_preference(ibgp_route("A"))
        assert rr.stats["assigned"] == 5
        for _ in range(3):
            rr.assign_geo_preference(ibgp_route("nowhere"))
        assert rr.stats["no_location"] == 3
        missing = Route(
            prefix=Prefix.parse("198.51.100.0/24"),
            as_path=(100, 9),
            next_hop="A",
        )
        for _ in range(2):
            rr.assign_geo_preference(missing)
        assert rr.stats["no_geoip"] == 2
        assert rr.stats["assigned"] == 5  # untouched by the miss paths
