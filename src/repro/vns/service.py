"""The high-level Video Network Service façade.

Bundles the synthetic Internet, the converged VNS AS, the GeoIP database
and the anycast resolver behind the operations the paper's experiments
(and a downstream user) need: resolve egress decisions, build forwarding
paths via VNS / via upstreams / natively over the Internet, and route a
video call end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - typing only (steering imports us back)
    from repro.steering.engine import SteeringEngine
    from repro.steering.policies import SteeringDecision


@dataclass(slots=True)
class CallPaths:
    """The transport options for a media stream between two users.

    ``via_detour`` (the one-hop PoP detour: last mile to the anycast
    entry PoP, then forced out onto the Internet there — zero backbone
    circuits) and ``decision`` are populated only when :meth:`
    VideoNetworkService.call_paths` ran with a steering engine.
    """

    via_vns: DataPath
    via_internet: DataPath
    entry_pop: str
    exit_pop: str
    via_detour: DataPath | None = None
    decision: "SteeringDecision | None" = None

    @property
    def chosen(self) -> DataPath:
        """The path the steering verdict selected (VNS when unsteered)."""
        if self.decision is None or self.decision.choice.value == "vns":
            return self.via_vns
        if self.decision.choice.value == "pop_detour" and self.via_detour is not None:
            return self.via_detour
        return self.via_internet


def detour_candidates(
    src_prefix: Prefix,
    dst_prefix: Prefix,
    entry_pop: str,
    inbound: DataPath,
    exit_leg: DataPath | None,
    via_vns: DataPath,
    via_internet: DataPath,
) -> "tuple[DataPath | None, PathCandidates]":
    """A call's one-hop PoP detour and the RTTs a steering policy weighs.

    The detour is the caller's last mile (``inbound``) to the anycast
    entry PoP followed by the forced local exit there (``exit_leg``, from
    :meth:`VideoNetworkService.path_local_exit`; Sec. 4.1) — zero
    backbone circuits; ``None`` when the PoP has no external route.  The
    one composition behind :meth:`VideoNetworkService.call_paths` and
    the campaign resolver, which pass their own (cached) legs.
    """
    from repro.steering.policies import PathCandidates

    via_detour = None
    if exit_leg is not None:
        via_detour = inbound.concat(exit_leg)
        via_detour.description = f"call-detour:{src_prefix}->{dst_prefix}"
    return via_detour, PathCandidates(
        vns_rtt_ms=via_vns.rtt_ms(),
        internet_rtt_ms=via_internet.rtt_ms(),
        detour_rtt_ms=None if via_detour is None else via_detour.rtt_ms(),
        detour_pop=None if via_detour is None else entry_pop,
    )


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
            if route is not None and route.as_path.first_hop is not None:
                asn = route.as_path.first_hop
                if asn in self.deployment.peers:
                    return asn, route.as_path.asns
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
        *,
        steering: "SteeringEngine | None" = None,
        t_hours: float = 0.0,
        call_id: int = 0,
    ) -> CallPaths | None:
        """The transport options for a call between two users.

        Via VNS: source last mile to its anycast entry PoP, VNS circuits to
        the egress closest to the destination, then the Internet tail.
        Via Internet: the native AS path between the two users' networks.
        Returns ``None`` if routing fails to resolve either way.

        Passing a ``steering`` engine additionally resolves the one-hop
        PoP detour (local exit at the entry PoP) and records the
        policy's :class:`~repro.steering.policies.SteeringDecision` for
        the call at campaign hour ``t_hours`` — read the selected path
        off :attr:`CallPaths.chosen`.
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
        via_detour = None
        verdict = None
        if steering is not None:
            via_detour, candidates = detour_candidates(
                src_prefix,
                dst_prefix,
                entry.code,
                inbound,
                self.path_local_exit(entry.code, dst_prefix, destination=dst_location),
                via_vns,
                via_internet,
            )
            verdict = steering.decide(
                src_prefix,
                dst_prefix,
                t_hours,
                candidates=candidates,
                call_id=call_id,
            )
        return CallPaths(
            via_vns=via_vns,
            via_internet=via_internet,
            entry_pop=entry.code,
            exit_pop=decision.egress_pop,
            via_detour=via_detour,
            decision=verdict,
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
            for known in router.loc_rib.prefixes()
            if known.length < prefix.length and known.contains_prefix(prefix)
        ]
        if not covering:
            raise ValueError(
                f"{pop_code} has no route to a prefix covering {prefix}"
            )
        self.management.add_static_more_specific(prefix, pop_code)
        from repro.bgp.attributes import NO_EXPORT

        self.network.engine.inject(
            router.originate(prefix, communities=frozenset({NO_EXPORT}))
        )
        self.network.converge()

    def refresh_routing(self) -> None:
        """Re-run convergence after management changes."""
        for router in self.network.border_routers.values():
            self.network.engine.inject(router.refresh_advertisements())
        for reflector in self.network.reflectors.values():
            self.network.engine.inject(reflector.refresh_advertisements())
        self.network.converge()
