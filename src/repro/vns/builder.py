"""Attaching VNS to the synthetic Internet.

Implements the deployment policy of Sec. 3.1: VNS "peers openly with any
other interested AS" at the exchanges where it is present, and "purchases
Internet transit from multiple Tier-1 or wholesale national providers".
If a peer is present at several VNS sites, sessions are established at
all of them (Sec. 4.2.2).  The builder also reproduces the operational
wart behind Fig. 11's London anomaly: VNS's main upstream in London is "a
large Tier-1 ISP that is mainly based in the US".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.attributes import Origin, Route
from repro.bgp.messages import Update
from repro.bgp.propagation import AsLevelRouting
from repro.geo.geoip import GeoIPDatabase
from repro.geo.regions import PopRegion
from repro.net.addressing import Prefix
from repro.net.asn import ASType, AutonomousSystem, PresencePoint
from repro.net.relationships import Relationship
from repro.net.topology import InternetTopology
from repro.vns.geo_rr import LocalPrefFunction, linear_lp
from repro.vns.management import ManagementInterface
from repro.vns.network import VNS_ASN, VnsNetwork, external_peer_id
from repro.vns.pop import POPS, PoP


#: Transit providers purchased (the paper's network has 7).
N_UPSTREAMS = 7

#: Of those, the *wholesale national/regional* providers ("multiple Tier-1
#: or wholesale national providers", Sec. 3.1; also the Sec. 4.4 strategy
#: of "buying geographically limited transit"): one per PoP region listed,
#: neediest first (global Tier-1 eyeball coverage is weakest in OC and AP).
REGIONAL_UPSTREAM_REGIONS = (PopRegion.OC, PopRegion.AP, PopRegion.EU)

#: Every PoP gets transit from at least this many upstreams; providers
#: without a local footprint deliver the circuit to the PoP (a PNI),
#: which adds a presence point for them at the PoP city.
MIN_UPSTREAMS_PER_POP = 2

#: The anycast service prefix users' TURN traffic targets.
ANYCAST_PREFIX = Prefix.parse("198.51.100.0/24")


@dataclass(slots=True)
class VnsConfig:
    """Deployment knobs."""

    #: Cap on settlement-free peers (paper: 13+ appear in Fig. 5's top-20).
    max_peers: int = 40
    #: Build geo reflectors ("after"); False gives the hot-potato "before"
    #: network, whose iBGP is the classic full mesh.
    geo_routing: bool = True
    #: The hidden-routes fix on border routers.
    enable_best_external: bool = True
    #: ``f(d)`` for the geo reflectors.
    lp_function: LocalPrefFunction = linear_lp


@dataclass(slots=True)
class VnsDeployment:
    """The built VNS attached to a topology."""

    network: VnsNetwork
    config: VnsConfig
    upstreams: list[int]
    peers: list[int]
    sessions: dict[int, list[str]]  # neighbour ASN -> border router ids
    main_upstream_at: dict[str, int]  # PoP code -> designated transit ASN
    anycast_prefix: Prefix
    messages_delivered: int = 0
    #: lazily-built ``session_pops`` memo (sessions are fixed once built;
    #: egress selection asks for the same neighbours on every call).
    _session_pops: dict[int, list[str]] = field(default_factory=dict, repr=False, compare=False)

    @property
    def neighbor_asns(self) -> list[int]:
        """All neighbours, upstreams first."""
        return list(self.upstreams) + list(self.peers)

    def session_pops(self, asn: int) -> list[str]:
        """PoP codes where VNS has a session with ``asn`` (memoised)."""
        pops = self._session_pops.get(asn)
        if pops is None:
            pops = self._session_pops[asn] = [
                self.network.pop_of_router[router_id]
                for router_id in self.sessions.get(asn, [])
            ]
        return pops


def _presence_city_names(system: AutonomousSystem) -> set[str]:
    return {point.city.name for point in system.presence}


def _choose_upstreams(topology: InternetTopology) -> list[int]:
    """Global Tier-1s plus regional wholesale providers.

    The global slots go to the largest LTPs by customer cone; each
    regional slot goes to the biggest STP homed in that PoP region, which
    pulls that region's eyeballs into the local PoP (anycast catchment
    engineering, Sec. 4.4).
    """
    n_global = N_UPSTREAMS - len(REGIONAL_UPSTREAM_REGIONS)
    ltps = topology.ases_of_type(ASType.LTP)
    ranked = sorted(
        ltps,
        key=lambda system: (-len(topology.graph.customer_cone(system.asn)), system.asn),
    )
    chosen = [system.asn for system in ranked[:n_global]]
    for region in REGIONAL_UPSTREAM_REGIONS:
        candidates = [
            system
            for system in topology.ases_of_type(ASType.STP)
            if system.home.city.pop_region is region and system.asn not in chosen
        ]
        if not candidates:
            continue
        best = max(
            candidates,
            key=lambda system: (len(topology.graph.customer_cone(system.asn)), -system.asn),
        )
        chosen.append(best.asn)
    return chosen


def _choose_peers(
    topology: InternetTopology, upstreams: list[int], config: VnsConfig
) -> list[int]:
    """STP/CAHP ASes co-located with VNS PoPs, by footprint overlap.

    Among equally co-located candidates, smaller customer cones win: a
    video-service overlay peers with access/content networks and small
    regional ISPs, not with the transit heavyweights it already buys from
    — which is also what keeps ~80% of routes on transit (Fig. 5 inset).
    """
    pop_cities = {pop.city.name for pop in POPS}
    candidates = []
    for system in topology.ases.values():
        if system.asn in upstreams or system.as_type is ASType.EC:
            continue
        if system.as_type is ASType.LTP:
            continue  # Tier-1s do not peer settlement-free with VNS
        shared = _presence_city_names(system) & pop_cities
        if shared:
            cone = len(topology.graph.customer_cone(system.asn))
            # CAHPs (access/content) first, then small regional STPs: an
            # overlay peers with edge networks, not transit heavyweights.
            candidates.append(
                (system.as_type is not ASType.CAHP, cone, -len(shared), system.asn)
            )
    candidates.sort()
    return [asn for _, _, _, asn in candidates[: config.max_peers]]


def _upstream_sessions(
    topology: InternetTopology, upstreams: list[int]
) -> tuple[list[tuple[int, PoP]], dict[str, int]]:
    """Transit sessions plus each PoP's designated *main* upstream.

    Each upstream connects wherever it is co-located with a PoP; every PoP
    is guaranteed at least one upstream.  A PoP's main upstream — the one
    its locally forced-out traffic defaults to — is the highest-ranked
    co-located provider, except at LON: there it is the Tier-1 with the
    weakest EU footprint (the paper's "large Tier-1 ISP that is mainly
    based in the US", the wart behind Sec. 5.2.2's anomaly).
    """
    sessions: list[tuple[int, PoP]] = []
    main_upstream_at: dict[str, int] = {}
    systems = {asn: topology.autonomous_system(asn) for asn in upstreams}

    def eu_presence(asn: int) -> int:
        return sum(
            1 for point in systems[asn].presence if point.city.region.value == "Europe"
        )

    global_upstreams = [
        asn for asn in upstreams if systems[asn].as_type is ASType.LTP
    ] or upstreams
    us_based = min(global_upstreams, key=lambda asn: (eu_presence(asn), asn))

    def deliver_locally(asn: int, pop: PoP) -> None:
        """Transit delivered to the PoP: the provider builds a PNI there."""
        system = systems[asn]
        if pop.city.name not in _presence_city_names(system):
            system.add_presence(PresencePoint(city=pop.city, location=pop.city.location))

    regional_for_region: dict[object, list[int]] = {}
    for asn in upstreams:
        system = systems[asn]
        if system.as_type is ASType.STP:
            regional_for_region.setdefault(system.home.city.pop_region, []).append(asn)

    for pop in POPS:
        at_pop: list[int] = []
        for asn in upstreams:
            if pop.city.name in _presence_city_names(systems[asn]):
                at_pop.append(asn)
        # A regional wholesale provider connects at every PoP of its home
        # region (delivering the circuit if it has no local footprint).
        for asn in regional_for_region.get(pop.region, []):
            if asn not in at_pop:
                deliver_locally(asn, pop)
                at_pop.append(asn)
        if pop.code == "LON":
            # The main upstream at LON is the US-based Tier-1; it hauls
            # traffic on its own (US-centric) infrastructure, which is the
            # Sec. 5.2.2 anomaly — deliberately no local PNI injected.
            if us_based not in at_pop:
                at_pop.insert(0, us_based)
            main_upstream_at[pop.code] = us_based
        while len(at_pop) < MIN_UPSTREAMS_PER_POP and len(at_pop) < len(upstreams):
            nearest = min(
                (asn for asn in upstreams if asn not in at_pop),
                key=lambda asn: systems[asn]
                .nearest_presence(pop.location)
                .location.distance_km(pop.location),
            )
            deliver_locally(nearest, pop)
            at_pop.append(nearest)
        main_upstream_at.setdefault(pop.code, at_pop[0])
        sessions.extend((asn, pop) for asn in at_pop)
    return sessions, main_upstream_at


def _peer_sessions(
    topology: InternetTopology, peers: list[int]
) -> list[tuple[int, PoP]]:
    """Peering at *all* shared sites (Sec. 4.2.2)."""
    sessions: list[tuple[int, PoP]] = []
    for asn in peers:
        cities = _presence_city_names(topology.autonomous_system(asn))
        for pop in POPS:
            if pop.city.name in cities:
                sessions.append((asn, pop))
    return sessions


def _inject_external_routes(
    topology: InternetTopology,
    routing: AsLevelRouting,
    network: VnsNetwork,
    sessions: dict[int, list[str]],
    rng: np.random.Generator,
) -> None:
    """Deliver the eBGP table transfers every neighbour sends at start-up.

    Border routers bulk-load their Adj-RIB-In (as real speakers do during
    initial transfers) and then advertise; the iBGP phase that follows is
    message-driven, in an order deliberately randomised (deterministically,
    via ``rng``) — real arrival order is arbitrary, and order-dependence
    is exactly what the hidden-routes discussion is about.
    """
    updates: list[Update] = []
    origins = sorted(topology.ases)
    for asn in sorted(sessions):
        relationship = network.relationships[asn]
        for origin in origins:
            as_route = routing.exported_to_neighbor(asn, relationship, origin)
            if as_route is None:
                continue
            as_path = (asn,) + as_route.path
            for prefix in topology.autonomous_system(origin).prefixes:
                for router_id in sessions[asn]:
                    peer_id = external_peer_id(asn, router_id)
                    route = Route(
                        prefix=prefix,
                        as_path=as_path,
                        next_hop=peer_id,
                        origin=Origin.IGP,
                    )
                    updates.append(
                        Update(sender=peer_id, receiver=router_id, route=route)
                    )
    by_receiver: dict[str, list[Update]] = {}
    for update in updates:
        by_receiver.setdefault(update.receiver, []).append(update)
    for router_id, batch in by_receiver.items():
        network.border_routers[router_id].bulk_receive(batch)
    followups: list[Update] = []
    for router_id in sorted(by_receiver):
        followups.extend(network.border_routers[router_id].refresh_advertisements())
    order = rng.permutation(len(followups))
    network.engine.inject([followups[i] for i in order])


def build_vns(
    topology: InternetTopology,
    routing: AsLevelRouting,
    geoip: GeoIPDatabase,
    config: VnsConfig | None = None,
    rng: np.random.Generator | None = None,
    *,
    management: ManagementInterface | None = None,
    converge: bool = True,
) -> VnsDeployment:
    """Build VNS, attach it to the Internet, and converge its routing.

    Adds VNS as AS 65000 to the topology's relationship graph (customer of
    its upstreams, peer of its peers), configures all eBGP sessions,
    originates the anycast service prefix at every PoP, injects every
    neighbour's routes, and runs BGP to convergence.
    """
    if config is None:
        config = VnsConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    upstreams = _choose_upstreams(topology)
    peers = _choose_peers(topology, upstreams, config)
    relationships: dict[int, Relationship] = {
        asn: Relationship.PROVIDER for asn in upstreams
    }
    relationships.update({asn: Relationship.PEER for asn in peers})

    network = VnsNetwork(
        geoip=geoip,
        geo_routing=config.geo_routing,
        enable_best_external=config.enable_best_external,
        lp_function=config.lp_function,
        relationships=relationships,
        management=management,
    )

    # Register VNS in the AS graph so anycast catchment can be resolved.
    if VNS_ASN not in topology.graph:
        for asn in upstreams:
            topology.graph.add_provider_customer(asn, VNS_ASN)
        for asn in peers:
            topology.graph.add_peering(asn, VNS_ASN)

    # Place sessions; alternate between a PoP's border routers.
    session_map: dict[int, list[str]] = {}
    next_router_index: dict[str, int] = {}
    placed: set[tuple[int, str]] = set()
    upstream_sessions, main_upstream_at = _upstream_sessions(topology, upstreams)
    for asn, pop in upstream_sessions + _peer_sessions(topology, peers):
        if (asn, pop.code) in placed:
            continue
        placed.add((asn, pop.code))
        index = next_router_index.get(pop.code, 0)
        router_ids = pop.router_ids()
        router_id = router_ids[index % len(router_ids)]
        next_router_index[pop.code] = index + 1
        network.add_ebgp_session(router_id, asn)
        session_map.setdefault(asn, []).append(router_id)

    # Originate the anycast service prefix at every PoP.
    for pop in POPS:
        router = network.border_routers[pop.router_ids()[0]]
        network.engine.inject(router.originate(ANYCAST_PREFIX))

    _inject_external_routes(topology, routing, network, session_map, rng)

    delivered = network.converge() if converge else 0
    return VnsDeployment(
        network=network,
        config=config,
        upstreams=upstreams,
        peers=peers,
        sessions=session_map,
        main_upstream_at=main_upstream_at,
        anycast_prefix=ANYCAST_PREFIX,
        messages_delivered=delivered,
    )
