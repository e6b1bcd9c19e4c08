"""Unit tests for the management override interface."""

import pytest

from repro.bgp.attributes import Route
from repro.geo.coords import GeoPoint
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix
from repro.vns.geo_rr import GeoRouteReflector
from repro.vns.management import FORCED_EXIT_LP, ManagementInterface

ASN = 65000
PFX = Prefix.parse("203.0.113.0/24")


def make_pair() -> tuple[ManagementInterface, GeoRouteReflector]:
    geoip = GeoIPDatabase()
    geoip.register(PFX, GeoPoint(51.9, 4.5), "NL")
    management = ManagementInterface()
    rr = GeoRouteReflector(
        "RR",
        ASN,
        geoip=geoip,
        router_locations={
            "AMS-r1": GeoPoint(52.37, 4.90),
            "SIN-r1": GeoPoint(1.35, 103.82),
        },
        management=management,
    )
    return management, rr


def route(next_hop: str) -> Route:
    return Route(prefix=PFX, as_path=(100, 9), next_hop=next_hop)


class TestForceExit:
    def test_forced_pop_gets_pinned_pref(self):
        management, rr = make_pair()
        management.force_exit(PFX, "SIN")
        assert management.override_local_pref(rr, route("SIN-r1"), 100) == FORCED_EXIT_LP

    def test_other_pops_keep_geo_pref(self):
        management, rr = make_pair()
        management.force_exit(PFX, "SIN")
        handled = management.override_local_pref(rr, route("AMS-r1"), 100)
        assert 1000 < handled < FORCED_EXIT_LP
        assert rr.stats["forced"] >= 1

    def test_clear_forced_exit(self):
        management, rr = make_pair()
        management.force_exit(PFX, "SIN")
        management.clear_forced_exit(PFX)
        assert management.override_local_pref(rr, route("AMS-r1"), 100) is None
        management.clear_forced_exit(PFX)  # idempotent


class TestExemption:
    def test_exempt_keeps_imported_pref(self):
        management, rr = make_pair()
        management.exempt_from_geo(PFX)
        assert management.override_local_pref(rr, route("AMS-r1"), 250) == 250
        assert rr.stats["exempt"] == 1
