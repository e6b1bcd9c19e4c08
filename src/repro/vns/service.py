"""The high-level Video Network Service façade.

Bundles the synthetic Internet, the converged VNS AS, the GeoIP database
and the anycast resolver behind the operations the paper's experiments
(and a downstream user) need: resolve egress decisions, build forwarding
paths via VNS / via upstreams / natively over the Internet, and route a
video call end to end.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.bgp.propagation import AsLevelRouting
from repro.dataplane.link import PathSegment, SegmentKind, intern_segment
from repro.dataplane.path import DataPath, internet_path
from repro.geo.coords import GeoPoint
from repro.geo.errors import GeoIPErrorModel, apply_error_models
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix
from repro.net.topology import InternetTopology, TopologyConfig, generate_topology
from repro.vns.anycast import AnycastResolver
from repro.vns.builder import VnsConfig, VnsDeployment, build_vns
from repro.vns.management import ManagementInterface
from repro.vns.network import EgressDecision, VnsNetwork
from repro.vns.pop import POPS, PoP, pop_by_code


@dataclass(slots=True)
class CallPaths:
    """The transport options for a media stream between two users."""

    via_vns: DataPath
    via_internet: DataPath
    entry_pop: str
    exit_pop: str


@contextmanager
def _collector_paused_for_build() -> Iterator[None]:
    """Keep the cyclic collector off a world while it is built, and after.

    A built world is a few hundred thousand long-lived tracked objects and
    no garbage, yet every full pass walks all of it.  So the collector is
    off for the build, and on a normal exit everything alive is frozen
    (``gc.freeze``): no later pass walks the world.  The lifetime rule is
    "a world is frozen until the next build": on entry, what earlier
    builds froze is unfrozen, and one full collection reclaims what was
    dropped since and only the collector can free.  A build that raises
    restores the collector and freezes nothing.  A caller that turned the
    collector off keeps it off: no collection, no pause, no freeze.  This
    is the program's one use of :mod:`gc` (DESIGN.md §12).
    """
    frozen = gc.get_freeze_count()
    gc.unfreeze()
    if not gc.isenabled():
        yield
        return
    if frozen:
        gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
    gc.freeze()


class VideoNetworkService:
    """The assembled service; see :meth:`build` for one-call construction."""

    def __init__(
        self,
        topology: InternetTopology,
        routing: AsLevelRouting,
        deployment: VnsDeployment,
        geoip: GeoIPDatabase,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self.deployment = deployment
        self.geoip = geoip
        self.anycast = AnycastResolver(topology, routing, deployment)

    @classmethod
    def build(
        cls,
        topology_config: TopologyConfig | None = None,
        vns_config: VnsConfig | None = None,
        *,
        seed: int = 0,
        geoip_errors: list[GeoIPErrorModel] | None = None,
        topology: InternetTopology | None = None,
        routing: AsLevelRouting | None = None,
        management: ManagementInterface | None = None,
    ) -> "VideoNetworkService":
        """Generate (or reuse) a world and build a converged VNS on it.

        ``geoip_errors`` degrade the GeoIP database before the reflectors
        see it — this is how the Fig. 3 outlier clusters are produced.
        Pass ``topology``/``routing`` to rebuild VNS (e.g. with geo routing
        off) on the same Internet.
        """
        with _collector_paused_for_build():
            rng = np.random.default_rng(seed)
            if topology is None:
                topology = generate_topology(topology_config, rng)
            if routing is None:
                routing = AsLevelRouting(topology.graph)
            geoip = topology.build_geoip()
            if geoip_errors:
                apply_error_models(geoip, geoip_errors, rng)
            deployment = build_vns(
                topology, routing, geoip, vns_config, rng, management=management
            )
            return cls(topology, routing, deployment, geoip)

    def freeze(self) -> "VideoNetworkService":
        """A compact, read-only snapshot of this service.

        The snapshot keeps only the converged forwarding outcome (best
        routes, PoP external routes, the IGP path closure) and drops the
        live BGP control plane, so it is cheap to pickle and unpickle —
        this is what campaign shard workers receive.  Path builders are
        bit-identical; mutation raises
        :class:`~repro.vns.frozen.FrozenWorldError`.
        """
        from repro.vns.frozen import freeze_service

        return freeze_service(self)

    # ----------------------------------------------------------------- #
    # convenience accessors
    # ----------------------------------------------------------------- #

    @property
    def network(self) -> VnsNetwork:
        return self.deployment.network

    @property
    def management(self) -> ManagementInterface:
        return self.network.management

    def pops(self) -> tuple[PoP, ...]:
        return POPS

    def egress_decision(self, entry_pop: str, prefix: Prefix) -> EgressDecision | None:
        """Where traffic entering at ``entry_pop`` exits for ``prefix``."""
        return self.network.egress_decision(entry_pop, prefix)

    # ----------------------------------------------------------------- #
    # path builders
    # ----------------------------------------------------------------- #

    def vns_internal_path(self, src_pop: str, dst_pop: str) -> DataPath:
        """The leg across VNS's dedicated L2 circuits (IGP shortest path).

        Re-resolved on every call, so under an active fault it is the
        post-reroute circuits (what a failover drill's stream rides).
        """
        pop_sequence = self.network.pop_l2_path(src_pop, dst_pop)
        segments = [
            intern_segment(
                SegmentKind.VNS_L2,
                pop_by_code(a).location,
                pop_by_code(b).location,
                label=f"{a}=={b}",
            )
            for a, b in zip(pop_sequence, pop_sequence[1:])
        ]
        return DataPath(segments=segments, description=f"vns:{src_pop}->{dst_pop}")

    def path_via_vns(
        self,
        entry_pop: str,
        prefix: Prefix,
        destination: GeoPoint | None = None,
        *,
        decision: EgressDecision | None = None,
    ) -> DataPath | None:
        """Entry PoP → (L2 circuits) → egress PoP → Internet → destination.

        ``destination`` defaults to the prefix's true location.  Returns
        ``None`` when VNS has no route for the prefix.  Callers that have
        already resolved the egress (``call_paths``, the campaign engine's
        path cache) pass it via ``decision`` so the lookup runs once.
        """
        if decision is None:
            decision = self.egress_decision(entry_pop, prefix)
        if decision is None:
            return None
        if destination is None:
            destination = self.topology.prefix_location[prefix]
        internal = self.vns_internal_path(entry_pop, decision.egress_pop)
        origin_as = self.topology.origin_as(prefix)
        external = internet_path(
            self.topology,
            decision.as_path,
            pop_by_code(decision.egress_pop).location,
            destination,
            destination_as_type=origin_as.as_type,
            first_segment_kind=SegmentKind.PEERING,
            description=f"egress:{decision.egress_pop}",
        )
        combined = internal.concat(external)
        combined.description = f"vns:{entry_pop}->{decision.egress_pop}->{prefix}"
        return combined

    def _external_route_at_pop(
        self, pop_code: str, prefix: Prefix, upstreams_only: bool
    ) -> tuple[int, tuple[int, ...]] | None:
        """(neighbour ASN, AS path) for a locally forced exit at a PoP.

        Mirrors local route preference: a peer route present at the PoP
        wins (local-pref by relationship), then the PoP's designated main
        upstream, then any other upstream with a route.  This ordering is
        what produces the London anomaly of Sec. 5.2.2: LON's main
        upstream is US-based, so EU-bound traffic without a peer route
        crosses the Atlantic and comes back.
        """
        origin = self.topology.origin_of.get(prefix)
        if not upstreams_only:
            route = self.network.local_external_route(pop_code, prefix)
            if route is not None and route.neighbor_as in self.deployment.peers:
                return route.neighbor_as, route.as_path
        if origin is None:
            return None
        main = self.deployment.main_upstream_at.get(pop_code)
        candidates = [main] if main is not None else []
        candidates += [
            asn
            for asn in self.deployment.upstreams
            if asn != main and pop_code in self.deployment.session_pops(asn)
        ]
        # Last resort: any upstream (transit is always purchasable).
        candidates += [asn for asn in self.deployment.upstreams if asn not in candidates]
        for asn in candidates:
            as_route = self.routing.route(asn, origin)
            if as_route is not None:
                return asn, (asn,) + as_route.path
        return None

    def _london_detour_point(self, asn: int, prefix: Prefix) -> GeoPoint | None:
        """The trans-Atlantic detour of Sec. 5.2.2, when it applies.

        London's main upstream is "a large Tier-1 ISP that is mainly based
        in the US"; for destinations it interconnects with only in North
        America traffic "cross[es] the Atlantic and come[s] back".  We
        select those destinations deterministically by prefix hash (three
        quarters of them) and route them via the upstream's primary
        North-American hub.
        """
        if asn != self.deployment.main_upstream_at.get("LON"):
            return None
        if (prefix.network >> 12) % 4 == 0:
            return None  # this destination interconnects locally
        system = self.topology.autonomous_system(asn)
        ashburn = pop_by_code("ASH").location
        return system.nearest_presence(ashburn).location

    def path_local_exit(
        self,
        pop_code: str,
        prefix: Prefix,
        destination: GeoPoint | None = None,
        *,
        upstreams_only: bool = False,
    ) -> DataPath | None:
        """A probe "forced out of VNS immediately" at ``pop_code`` (Sec. 4.1).

        With ``upstreams_only`` the exit is restricted to transit sessions
        — the "through its upstreams" comparison of Sec. 4.3 / 5.1.
        """
        resolved = self._external_route_at_pop(pop_code, prefix, upstreams_only)
        if resolved is None:
            return None
        asn, as_path = resolved
        if destination is None:
            destination = self.topology.prefix_location[prefix]
        origin_as = self.topology.origin_as(prefix)
        start = pop_by_code(pop_code).location
        segments_prefix: list[PathSegment] = []
        first_kind = SegmentKind.PEERING
        if pop_code == "LON":
            detour = self._london_detour_point(asn, prefix)
            if detour is not None:
                # Deliberately not marked premium: the wart is exactly
                # that this trunk is a poor fit for EU-bound traffic.
                segments_prefix.append(
                    intern_segment(
                        SegmentKind.TRANSIT, start, detour, label="LON->US-haul"
                    )
                )
                start = detour
                first_kind = SegmentKind.TRANSIT
        path = internet_path(
            self.topology,
            as_path,
            start,
            destination,
            destination_as_type=origin_as.as_type,
            first_segment_kind=first_kind,
            description=f"local:{pop_code}->{prefix}",
        )
        if segments_prefix:
            path.segments[:0] = segments_prefix
        return path

    def _preferred_upstream_at(self, pop_code: str) -> int:
        """The transit provider used for PoP-to-PoP Internet legs."""
        main = self.deployment.main_upstream_at.get(pop_code)
        if main is not None:
            return main
        for asn in self.deployment.upstreams:
            if pop_code in self.deployment.session_pops(asn):
                return asn
        return self.deployment.upstreams[0]

    def path_between_pops_via_upstream(self, src_pop: str, dst_pop: str) -> DataPath:
        """PoP → upstream transit → PoP, bypassing VNS's own circuits.

        This is the Sec. 5.1 baseline: the same endpoints as the VNS leg,
        carried by the large transit providers instead.
        """
        src = pop_by_code(src_pop)
        dst = pop_by_code(dst_pop)
        u_src = self._preferred_upstream_at(src_pop)
        u_dst = self._preferred_upstream_at(dst_pop)
        if u_src == u_dst:
            as_path: tuple[int, ...] = (u_src,)
        else:
            full = self.routing.path(u_src, u_dst)
            as_path = full if full is not None else (u_src, u_dst)
        return internet_path(
            self.topology,
            as_path,
            src.location,
            dst.location,
            first_segment_kind=SegmentKind.PEERING,
            final_access=False,
            description=f"transit:{src_pop}->{dst_pop}",
        )

    def last_mile_path(
        self, user_prefix: Prefix, user_location: GeoPoint, entry_pop: str
    ) -> DataPath:
        """User → Internet → entry PoP (the A-B leg of Fig. 8).

        The user's access segment is typed with their AS's class, then the
        AS path from their AS to VNS carries the traffic to the PoP.
        """
        origin = self.topology.origin_as(user_prefix)
        as_path = self.routing.path(origin.asn, 65000)
        transit_asns = as_path[:-1] if as_path else (origin.asn,)
        pop = pop_by_code(entry_pop)
        path = internet_path(
            self.topology,
            transit_asns,
            user_location,
            pop.location,
            first_segment_kind=SegmentKind.ACCESS,
            final_access=False,
            description=f"lastmile:{origin.asn}->{entry_pop}",
        )
        # Type the first (access) segment with the user's AS class.
        first = path.segments[0]
        path.segments[0] = intern_segment(
            SegmentKind.ACCESS,
            first.start,
            first.end,
            as_type=origin.as_type,
            label=first.label,
        )
        return path

    def path_via_internet(
        self,
        src_prefix: Prefix,
        src_location: GeoPoint,
        dst_prefix: Prefix,
        dst_location: GeoPoint,
    ) -> DataPath | None:
        """User → native AS path → user, VNS not involved.

        The Internet transport of a call between the two users'
        networks; ``None`` when no AS path connects them.
        """
        dst_origin = self.topology.origin_as(dst_prefix)
        native = self.routing.path(
            self.topology.origin_of[src_prefix], dst_origin.asn
        )
        if native is None:
            return None
        return internet_path(
            self.topology,
            native[1:] if len(native) > 1 else native,
            src_location,
            dst_location,
            destination_as_type=dst_origin.as_type,
            first_segment_kind=SegmentKind.ACCESS,
            description=f"call-inet:{src_prefix}->{dst_prefix}",
        )

    # ----------------------------------------------------------------- #
    # end-to-end calls
    # ----------------------------------------------------------------- #

    def call_paths(
        self,
        src_prefix: Prefix,
        src_location: GeoPoint,
        dst_prefix: Prefix,
        dst_location: GeoPoint,
    ) -> CallPaths | None:
        """The transport options for a call between two users.

        Via VNS: source last mile to its anycast entry PoP, VNS circuits to
        the egress closest to the destination, then the Internet tail.
        Via Internet: the native AS path between the two users' networks.
        Returns ``None`` if routing fails to resolve either way.
        """
        src_origin = self.topology.origin_as(src_prefix)
        entry = self.anycast.entry_pop(src_origin.asn, src_location)
        if entry is None:
            return None
        decision = self.egress_decision(entry.code, dst_prefix)
        if decision is None:
            return None
        inbound = self.last_mile_path(src_prefix, src_location, entry.code)
        onward = self.path_via_vns(
            entry.code, dst_prefix, destination=dst_location, decision=decision
        )
        assert onward is not None  # decision already resolved
        via_vns = inbound.concat(onward)
        via_vns.description = f"call-vns:{src_prefix}->{dst_prefix}"

        via_internet = self.path_via_internet(
            src_prefix, src_location, dst_prefix, dst_location
        )
        if via_internet is None:
            return None
        return CallPaths(
            via_vns=via_vns,
            via_internet=via_internet,
            entry_pop=entry.code,
            exit_pop=decision.egress_pop,
        )

    # ----------------------------------------------------------------- #
    # management actions that need router cooperation
    # ----------------------------------------------------------------- #

    def apply_static_more_specific(self, prefix: Prefix, pop_code: str) -> None:
        """Originate a more-specific at ``pop_code``, tagged ``no-export``.

        Implements the Sec. 3.2 mechanism for prefixes "mostly confined to
        a limited region but [with] one or a few subnets located in a
        different region".  The route never leaves VNS; externally the
        covering prefix still attracts the traffic.

        Raises
        ------
        ValueError
            If the PoP has no route to a covering (less specific) prefix,
            which the paper states as the precondition.
        """
        router = self.network.border_routers[pop_by_code(pop_code).router_ids()[0]]
        covering = [
            known
            for known in router.loc_rib
            if known.length < prefix.length and known.contains_prefix(prefix)
        ]
        if not covering:
            raise ValueError(
                f"{pop_code} has no route to a prefix covering {prefix}"
            )
        from repro.bgp.attributes import NO_EXPORT

        self.network.engine.inject(
            router.originate(prefix, communities=frozenset({NO_EXPORT}))
        )
        self.network.converge()
