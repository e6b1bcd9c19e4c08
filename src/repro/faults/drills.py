"""The canned failover drills, as data.

A drill is a fault timeline plus a corridor to ride
(:class:`~repro.faults.recovery.Drill`); :func:`canned_drills` names the
failure modes the paper's design guards against — a long-haul circuit cut
(the L2 mesh reroutes), a whole-PoP loss (anycast re-catchment moves
users to surviving PoPs), a correlated regional failure, a flapping
upstream session, and a pure data-plane transit degradation (the case
VNS's dedicated circuits exist to absorb).  The only code here is the
lookups on the live service that pick the targets.
"""

from __future__ import annotations

from repro.dataplane.link import SegmentKind
from repro.faults.events import (
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
    TransitDegrade,
    TransitRestore,
)
from repro.faults.recovery import Drill
from repro.geo.cities import region_of_point
from repro.geo.regions import WorldRegion
from repro.vns.links import VNS_LONG_HAUL_LINKS
from repro.vns.service import VideoNetworkService


def resolve_corridor(
    service: VideoNetworkService, a: str, b: str
) -> tuple[str, str]:
    """The circuit to cut so that ``a``→``b`` traffic must reroute.

    If a direct ``a``–``b`` circuit exists, that is the corridor.
    Otherwise (e.g. AMS→ASH rides the LON==ASH trans-Atlantic circuit)
    the corridor is the first long-haul link on the IGP shortest path —
    falling back to the first hop if the path is all-regional.

    Raises
    ------
    ValueError
        If ``a`` and ``b`` have no internal path at all.
    """
    network = service.network
    if network.has_circuit(a, b):
        return (a, b)
    long_haul = {
        frozenset((link.a, link.b)) for link in network.l2_links if link.long_haul
    }
    path = network.pop_l2_path(a, b)
    for x, y in zip(path, path[1:]):
        if frozenset((x, y)) in long_haul:
            return (x, y)
    return (path[0], path[1])


def link_cut(service: VideoNetworkService, src: str, dst: str) -> Drill:
    """A mid-call fibre cut on the circuit carrying ``src``→``dst``, then repair.

    On the (biconnected) production mesh the IGP reroutes instantly, BGP
    re-shuffles hot-potato egresses, no prefix is left blackholed, and
    the in-flight stream eats a bounded outage.  SIN==SYD is the
    exception: Oceania's only circuit, so cutting it strands SYD.
    """
    a, b = resolve_corridor(service, src, dst)
    return Drill(
        f"single-link-cut:{a}=={b}",
        (LinkDown(60.0, a, b), LinkUp(660.0, a, b)),
        media=(src, dst),
    )


def canned_drills(service: VideoNetworkService) -> tuple[Drill, ...]:
    """The failover suite: every long-haul cut plus four composite drills.

    * SIN lost for half an hour while AMS→HK, which normally rides
      AMS==SIN--HK, falls back to the trans-Atlantic + trans-Pacific
      circuits; SIN is the one cut vertex, so SYD-entry cells stay dark
      until repair.
    * Both trans-Pacific circuits cut seconds apart (a shared cable
      event) and repaired in reverse order; AP traffic squeezes onto
      SIN==SJS.
    * LON's main upstream (the US-based Tier-1 of the Sec. 5.2.2 anomaly)
      flaps twice; each flap withdraws and replays a full table.
    * Sustained loss and delay on the longest transit hop under the path
      from AMS to the lowest North-America prefix: BGP never reacts, only
      the Internet *tail* of the VNS path is exposed.

    Raises
    ------
    ValueError
        If LON's main upstream has no session at LON, there is no
        North-America prefix, or AMS has no VNS path to it or one that
        crosses no transit segment (not the standard scales).
    """
    topology, deployment = service.topology, service.deployment
    asn = deployment.main_upstream_at["LON"]
    pop_of = service.network.pop_of_router
    router_id = next(
        (rid for rid in deployment.sessions[asn] if pop_of[rid] == "LON"), None
    )
    if router_id is None:
        raise ValueError(f"AS{asn} has no session at LON")
    prefix = min(
        prefix
        for prefix, location in topology.prefix_location.items()
        if region_of_point(location) is WorldRegion.NORTH_CENTRAL_AMERICA
    )
    path = service.path_via_vns("AMS", prefix)
    if path is None:
        raise ValueError(f"AMS has no VNS path to {prefix}")
    hop = max(
        (s for s in path.segments if s.kind is SegmentKind.TRANSIT),
        key=lambda segment: segment.distance_km,
    )
    regions = (hop.start_region.value, hop.end_region.value)
    return (
        *(link_cut(service, a, b) for a, b in VNS_LONG_HAUL_LINKS),
        Drill(
            "pop-failure:SIN",
            (PopDown(60.0, "SIN"), PopUp(1860.0, "SIN")),
            media=("AMS", "HK"),
        ),
        Drill(
            "regional-failure:SJS==HK+SJS==TYO",
            (
                LinkDown(60.0, "SJS", "HK"),
                LinkDown(62.0, "SJS", "TYO"),
                LinkUp(3660.0, "SJS", "TYO"),
                LinkUp(3662.0, "SJS", "HK"),
            ),
            media=("SJS", "TYO"),
        ),
        Drill(
            f"flapping-upstream:AS{asn}@LON",
            (
                SessionDown(60.0, asn, router_id),
                SessionUp(90.0, asn, router_id),
                SessionDown(180.0, asn, router_id),
                SessionUp(210.0, asn, router_id),
            ),
        ),
        Drill(
            f"transit-degradation:{regions[0]}~{regions[1]}",
            (
                TransitDegrade(60.0, regions, extra_loss=0.05, extra_delay_ms=30.0),
                TransitRestore(1860.0, regions),
            ),
            media=("AMS", prefix),
        ),
    )
