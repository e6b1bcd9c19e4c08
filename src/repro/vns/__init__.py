"""The Video Network Service: the paper's contribution.

A network-layer overlay organised as one Autonomous System: 11 PoPs on
four continents, regional L2 meshes interconnected by long-haul dedicated
links, BGP toward the outside, an IGP inside, and — the key piece — a
geo-based route reflector that rewrites LOCAL_PREF from the great-circle
distance between each candidate egress and the destination prefix's GeoIP
location, turning default hot-potato routing into cold-potato routing.
"""

from repro.vns.pop import POPS, PoP, pop_by_code, pops_in_region
from repro.vns.links import VNS_LONG_HAUL_LINKS, build_l2_topology
from repro.vns.geo_rr import GeoRouteReflector, LocalPrefFunction, linear_lp, stepped_lp
from repro.vns.management import ManagementInterface
from repro.vns.anycast import AnycastResolver
from repro.vns.network import VnsNetwork
from repro.vns.builder import VnsConfig, build_vns
from repro.vns.service import VideoNetworkService
from repro.vns.frozen import (
    FrozenNetwork,
    FrozenWorldError,
    freeze_service,
    is_frozen,
)

__all__ = [
    "PoP",
    "POPS",
    "pop_by_code",
    "pops_in_region",
    "VNS_LONG_HAUL_LINKS",
    "build_l2_topology",
    "GeoRouteReflector",
    "LocalPrefFunction",
    "linear_lp",
    "stepped_lp",
    "ManagementInterface",
    "AnycastResolver",
    "VnsNetwork",
    "VnsConfig",
    "build_vns",
    "VideoNetworkService",
    "FrozenNetwork",
    "FrozenWorldError",
    "freeze_service",
    "is_frozen",
]
