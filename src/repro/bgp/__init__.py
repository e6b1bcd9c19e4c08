"""A BGP-4 implementation sized for simulating one AS and its neighbours.

The geo-based routing of Sec. 3.2 is "a modified Quagga software router
that acts as a route reflector".  To reproduce it faithfully — including
the hidden-routes pathology and the best-external fix — this subpackage
implements real BGP machinery:

* RFC 4271 path attributes and the full decision process,
* the eBGP business policy (relationship LOCAL_PREF and tags on import,
  Gao-Rexford export, ``no-export``), read off one relationship table,
* speakers with Adj-RIB-In / Loc-RIB / Adj-RIB-Out and incremental updates,
* RFC 4456 route reflection with ``ORIGINATOR_ID`` / ``CLUSTER_LIST``,
* the "best external" advertisement feature (Sec. 3.2, "Hidden routes"),
* a message engine with controllable delivery order, and
* an AS-level valley-free propagation model for the synthetic Internet.
"""

from repro.bgp.attributes import (
    NO_EXPORT,
    Origin,
    Route,
)
from repro.bgp.messages import Update, Withdraw
from repro.bgp.decision import best_route, decision_order
from repro.bgp.rib import AdjRib
from repro.bgp.session import Session, SessionType
from repro.bgp.router import BgpRouter
from repro.bgp.reflector import RouteReflector
from repro.bgp.engine import BgpEngine
from repro.bgp.propagation import AsLevelRoute, AsLevelRouting, compute_routes_to_origin

__all__ = [
    "Origin",
    "Route",
    "NO_EXPORT",
    "Update",
    "Withdraw",
    "best_route",
    "decision_order",
    "AdjRib",
    "Session",
    "SessionType",
    "BgpRouter",
    "RouteReflector",
    "BgpEngine",
    "AsLevelRoute",
    "AsLevelRouting",
    "compute_routes_to_origin",
]
