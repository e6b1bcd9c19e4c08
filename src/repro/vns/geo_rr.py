"""The geo-based route reflector — the modified Quagga of Sec. 3.2.

"Our Quagga RR is modified to assign a local preference value to each
route based on its geographic location.  When it receives an update
message from an egress router A concerning a network prefix p, it
calculates the geographic distance d between A and p [...] and computes
the corresponding local preference lp as a function of d, lp = f(d), the
lower the value of d the higher the value of lp.  The newly assigned
local preference is always much higher than the default value of 100."

The reflector consults a GeoIP database for p and knows its client
routers' locations a priori.  Management overrides (force-exit,
geo-exempt) hook in before the distance computation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.bgp.attributes import Route
from repro.bgp.reflector import RouteReflector
from repro.bgp.session import Session
from repro.geo.coords import (
    GeoPoint,
    TrigTerms,
    great_circle_km,
    great_circle_km_fast,
    trig_terms,
)
from repro.geo.geoip import GeoIPDatabase
from repro.perf import counters as perf

#: ``lp = f(d)`` signature: great-circle km → LOCAL_PREF.
LocalPrefFunction = Callable[[float], int]

#: Floor of all geo-assigned preferences: far above the default 100 and
#: above any relationship-based preference, so geo decisions dominate.
GEO_LP_BASE = 1_000
#: Distance at which the geo preference bottoms out (half the Earth's
#: circumference; nothing is farther away).
GEO_LP_MAX_KM = 20_037.0


def linear_lp(distance_km: float) -> int:
    """The default ``f(d)``: linear in distance, 10 km resolution.

    Ranges from ``GEO_LP_BASE`` (antipodal) to ``GEO_LP_BASE + 2003``
    (zero distance); always "much higher than the default value of 100".
    """
    clamped = min(max(distance_km, 0.0), GEO_LP_MAX_KM)
    return GEO_LP_BASE + int(round((GEO_LP_MAX_KM - clamped) / 10.0))


def stepped_lp(distance_km: float, step_km: float = 500.0) -> int:
    """A coarser ``f(d)``: one preference level per ``step_km`` bucket.

    Used by the ablation bench: coarse buckets let the later (hot-potato)
    decision stages break ties among near-equidistant egresses.
    """
    clamped = min(max(distance_km, 0.0), GEO_LP_MAX_KM)
    buckets = int(GEO_LP_MAX_KM / step_km)
    bucket = min(int(clamped / step_km), buckets)
    return GEO_LP_BASE + (buckets - bucket)


class GeoRouteReflector(RouteReflector):
    """A route reflector that rewrites LOCAL_PREF from geography.

    Parameters
    ----------
    geoip:
        The prefix-location database ("resides on the same server").
    router_locations:
        Known locations of the client border routers, keyed by router id
        ("the geographic location of A is known beforehand").
    lp_function:
        ``f(d)``; defaults to :func:`linear_lp`.
    management:
        Optional override interface (Sec. 3.2, "Overriding Geo-routing").
    """

    def __init__(
        self,
        router_id: str,
        asn: int,
        *,
        geoip: GeoIPDatabase,
        router_locations: dict[str, GeoPoint],
        lp_function: LocalPrefFunction = linear_lp,
        management: "ManagementHook | None" = None,
        **kwargs,
    ) -> None:
        super().__init__(router_id, asn, **kwargs)
        self.geoip = geoip
        self.router_locations = dict(router_locations)
        self.lp_function = lp_function
        self.management = management
        #: Counters for observability/tests.
        self.stats = {"assigned": 0, "no_geoip": 0, "no_location": 0, "exempt": 0, "forced": 0}
        # The egress set is small and fixed (the ~22 border routers), so
        # each egress's haversine trig terms are computed exactly once.
        self._egress_trig: dict[str, TrigTerms] = {
            rid: trig_terms(loc) for rid, loc in self.router_locations.items()
        }
        # Memo of computed LOCAL_PREFs keyed on (next_hop, prefix).
        # During convergence the same (egress, prefix) pair is re-imported
        # many times (reflection, refreshes, IGP notifications); the f(d)
        # result cannot change unless the GeoIP database does, which the
        # database version stamp detects.  The key space is bounded by
        # border routers x prefixes (21 x 2,126 = 44,646 entries at LARGE),
        # so the memo needs no eviction.
        self._lp_memo: dict[tuple[str, object], int] = {}
        self._memo_version = geoip.version

    def invalidate_geo_cache(self) -> None:
        """Drop all memoized LOCAL_PREFs and re-read egress locations.

        GeoIP mutations are detected automatically via the database
        version; call this only after mutating :attr:`router_locations`
        or :attr:`lp_function` in place.
        """
        self._lp_memo.clear()
        self._egress_trig = {
            rid: trig_terms(loc) for rid, loc in self.router_locations.items()
        }

    def transform_imported(self, route: Route, session: Session) -> Route | None:
        """Assign the geo LOCAL_PREF to routes arriving over iBGP.

        Routes from egress routers carry the egress as BGP next hop
        (borders apply next-hop-self), so the distance is computed from
        the next hop's location even for routes relayed by another
        reflector.
        """
        route = super().transform_imported(route, session)
        if route is None or not session.is_ibgp:
            return route
        if self.management is not None:
            handled = self.management.transform(self, route)
            if handled is not None:
                return handled
        return self.assign_geo_preference(route)

    def assign_geo_preference(self, route: Route) -> Route:
        """The core rewrite: ``lp = f(great_circle(egress, geoip(p)))``.

        Hot path: runs once per imported route during convergence.  Three
        optimisations over :meth:`assign_geo_preference_reference`, all
        decision-identical: per-egress trig terms are precomputed, the
        ``(next_hop, prefix) -> lp`` result is memoized (invalidated by
        GeoIP mutation), and the route is only copied when the computed
        preference actually differs from its current value.
        """
        if perf.enabled:
            perf.incr("geo.assign.calls")
        if self._memo_version != self.geoip.version:
            self._lp_memo.clear()
            self._memo_version = self.geoip.version
        key = (route.next_hop, route.prefix)
        memo = self._lp_memo
        lp = memo.get(key)
        if lp is not None:
            if perf.enabled:
                perf.incr("geo.assign.memo_hits")
        else:
            trig = self._egress_trig.get(route.next_hop)
            if trig is None:
                egress = self.router_locations.get(route.next_hop)
                if egress is None:
                    self.stats["no_location"] += 1
                    return route
                trig = self._egress_trig[route.next_hop] = trig_terms(egress)
            entry = self.geoip.lookup(route.prefix)
            if entry is None:
                # Database miss: fall back to default BGP behaviour.
                self.stats["no_geoip"] += 1
                return route
            lp = self.lp_function(great_circle_km_fast(trig, entry.location))
            memo[key] = lp
        self.stats["assigned"] += 1
        return route.with_local_pref(lp)

    def assign_geo_preference_reference(self, route: Route) -> Route:
        """The pre-optimisation implementation, preserved verbatim.

        Kept as the oracle for the decision-identity test and as the
        baseline side of the scale benchmark's geo-LP microbenchmark.
        Increments the same :attr:`stats` counters as the fast path.
        """
        egress = self.router_locations.get(route.next_hop)
        if egress is None:
            self.stats["no_location"] += 1
            return route
        entry = self.geoip.lookup(route.prefix)
        if entry is None:
            self.stats["no_geoip"] += 1
            return route
        distance = great_circle_km(egress, entry.location)
        self.stats["assigned"] += 1
        return replace(route, local_pref=self.lp_function(distance))


class ManagementHook:
    """Interface the management system implements to override geo-routing.

    See :class:`repro.vns.management.ManagementInterface` for the concrete
    implementation; this indirection keeps the reflector importable
    without the management module.
    """

    def transform(self, reflector: GeoRouteReflector, route: Route) -> Route | None:
        """Return a fully handled route, or ``None`` to let geo proceed."""
        raise NotImplementedError
