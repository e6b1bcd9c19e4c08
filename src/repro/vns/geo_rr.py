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
from typing import TYPE_CHECKING

from repro.bgp.attributes import Route
from repro.bgp.reflector import RouteReflector
from repro.bgp.session import Session
from repro.geo.coords import GeoPoint, great_circle_km
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix
from repro.perf import counters as perf

if TYPE_CHECKING:  # pragma: no cover - typing only (management imports us back)
    from repro.vns.management import ManagementInterface

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
        management: "ManagementInterface | None" = None,
        **kwargs,
    ) -> None:
        super().__init__(router_id, asn, **kwargs)
        self.geoip = geoip
        self.router_locations = dict(router_locations)
        self.lp_function = lp_function
        self.management = management
        #: Counters for observability/tests.
        self.stats = {"assigned": 0, "no_geoip": 0, "no_location": 0, "exempt": 0, "forced": 0}
        # Memo of computed LOCAL_PREFs: next hop -> prefix -> lp.
        # During convergence the same (egress, prefix) pair is re-imported
        # many times (reflection, refreshes, IGP notifications); the f(d)
        # result cannot change unless the GeoIP database does, which the
        # database version stamp detects.  The key space is bounded by
        # border routers x prefixes (21 x 2,126 = 44,646 entries at LARGE),
        # so the memo needs no eviction; nesting it by egress keeps no
        # (next hop, prefix) key object per entry.
        self._lp_memo: dict[str, dict[Prefix, int]] = {}
        self._memo_version = geoip.version

    def invalidate_geo_cache(self) -> None:
        """Drop all memoized LOCAL_PREFs.

        GeoIP mutations are detected automatically via the database
        version; call this only after mutating :attr:`router_locations`
        or :attr:`lp_function` in place.
        """
        self._lp_memo.clear()

    def import_local_pref(self, route: Route, session: Session, local_pref: int) -> int:
        """Assign the geo LOCAL_PREF to routes arriving over iBGP.

        Routes from egress routers carry the egress as BGP next hop
        (borders apply next-hop-self), so the distance is computed from
        the next hop's location even for routes relayed by another
        reflector.
        """
        if not session.is_ibgp:
            return local_pref
        if self.management is not None:
            override = self.management.override_local_pref(self, route, local_pref)
            if override is not None:
                return override
        return self.geo_local_pref(route, local_pref)

    def assign_geo_preference(self, route: Route) -> Route:
        """``route`` with the geo LOCAL_PREF (:meth:`geo_local_pref`);
        ``route`` itself when that is the LOCAL_PREF it already has."""
        return route.with_local_pref(self.geo_local_pref(route, route.local_pref))

    def geo_local_pref(self, route: Route, local_pref: int) -> int:
        """The core rewrite: ``lp = f(great_circle(egress, geoip(p)))``.

        Reads ``route``'s next hop and prefix; returns ``local_pref``
        unchanged when the egress location or the prefix's GeoIP entry is
        unknown.  Hot path: runs once per route imported over iBGP during
        convergence.  The one optimisation over
        :meth:`assign_geo_preference_reference` is the ``(next_hop,
        prefix) -> lp`` memo (invalidated by GeoIP mutation); a miss
        computes the same :func:`~repro.geo.coords.great_circle_km`.
        """
        if perf.enabled:
            perf.incr("geo.assign.calls")
        if self._memo_version != self.geoip.version:
            self._lp_memo.clear()
            self._memo_version = self.geoip.version
        next_hop = route.next_hop
        memo = self._lp_memo.get(next_hop)
        lp = None if memo is None else memo.get(route.prefix)
        if lp is not None:
            if perf.enabled:
                perf.incr("geo.assign.memo_hits")
        else:
            egress = self.router_locations.get(next_hop)
            if egress is None:
                self.stats["no_location"] += 1
                return local_pref
            entry = self.geoip.lookup(route.prefix)
            if entry is None:
                # Database miss: fall back to default BGP behaviour.
                self.stats["no_geoip"] += 1
                return local_pref
            lp = self.lp_function(great_circle_km(egress, entry.location))
            if memo is None:
                memo = self._lp_memo[next_hop] = {}
            memo[route.prefix] = lp
        self.stats["assigned"] += 1
        return lp

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
        return route._replace(local_pref=self.lp_function(distance))
