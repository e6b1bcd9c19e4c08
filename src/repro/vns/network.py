"""The VNS Autonomous System: routers, reflectors, iBGP, and IGP.

Assembles the intra-AS machinery: one or two border routers per PoP
(21 in total — "over 20 routers in 11 PoPs"), two route reflectors for
operational stability (the paper's footnote), an iBGP star from every
border to both reflectors (borders are clients; reflectors peer with each
other as non-clients), and a delay-tuned IGP over the L2 circuits.
Without geo routing (the hot-potato "before" network) there are no
reflectors: the border routers form a classic iBGP full mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bgp.attributes import Route
from repro.bgp.engine import BgpEngine
from repro.bgp.messages import IgpNotification
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.geo.coords import GeoPoint
from repro.geo.geoip import GeoIPDatabase
from repro.igp.graph import IgpGraph
from repro.igp.spf import ShortestPaths, all_pairs_spf
from repro.net.addressing import Prefix
from repro.net.relationships import Relationship
from repro.vns.geo_rr import GeoRouteReflector, LocalPrefFunction, linear_lp
from repro.vns.links import L2Link, build_l2_topology, router_level_igp
from repro.vns.management import ManagementInterface
from repro.vns.pop import POPS, PoP, pop_by_code

if TYPE_CHECKING:  # pragma: no cover - typing only (frozen imports us back)
    from repro.vns.frozen import FrozenNetwork

#: VNS's AS number (a documentation-range value standing in for the real one).
VNS_ASN = 65000

#: Where the two reflectors are hosted.
REFLECTOR_POPS = ("AMS", "ASH")

#: Messages a convergence may deliver before it raises ``ConvergenceError``.
CONVERGE_BUDGET = 10_000_000


@dataclass(slots=True)
class EgressDecision:
    """The converged forwarding decision at one PoP for one prefix."""

    prefix: Prefix
    entry_pop: str
    egress_pop: str
    egress_router: str
    neighbor_asn: int
    as_path: tuple[int, ...]
    local_pref: int


def external_peer_id(asn: int, router_id: str) -> str:
    """The synthetic identifier of a neighbour AS's session endpoint."""
    return f"x{asn}@{router_id}"


def parse_external_peer_id(peer_id: str) -> tuple[int, str]:
    """Inverse of :func:`external_peer_id`.

    Raises
    ------
    ValueError
        If the identifier is not in ``x<asn>@<router>`` form.
    """
    if not peer_id.startswith("x") or "@" not in peer_id:
        raise ValueError(f"not an external peer id: {peer_id!r}")
    asn_text, router_id = peer_id[1:].split("@", 1)
    return int(asn_text), router_id


def resolve_egress(
    network: "VnsNetwork | FrozenNetwork",
    entry_router: str,
    entry_pop: str,
    prefix: Prefix,
) -> EgressDecision | None:
    """Where traffic entering at ``entry_router`` exits for ``prefix``.

    The one egress rule, over any network that answers ``best_route`` and
    ``pop_of_router`` — the live control plane and its frozen snapshot
    alike.  Resolves the entry router's best route: an eBGP-learned best
    exits locally; an iBGP-learned best names the egress border router as
    next hop.  Returns ``None`` if no route exists.
    """
    best = network.best_route(entry_router, prefix)
    if best is None:
        return None
    if best.ebgp:
        egress_router = entry_router
        neighbor_peer = best.learned_from
    else:
        egress_router = best.next_hop
        try:
            egress_best = network.best_route(egress_router, prefix)
        except KeyError:
            return None  # the next hop is not a border router of ours
        if egress_best is None or not egress_best.ebgp:
            # The egress no longer prefers an external route; fall back
            # to whichever external session the reflected route names.
            neighbor_peer = None
        else:
            neighbor_peer = egress_best.learned_from
    if neighbor_peer is not None:
        neighbor_asn, _ = parse_external_peer_id(neighbor_peer)
    else:
        neighbor_asn = best.neighbor_as or 0
    return EgressDecision(
        prefix=prefix,
        entry_pop=entry_pop,
        egress_pop=network.pop_of_router[egress_router],
        egress_router=egress_router,
        neighbor_asn=neighbor_asn,
        as_path=best.as_path,
        local_pref=best.local_pref,
    )


class VnsNetwork:
    """The assembled VNS AS.

    Parameters
    ----------
    geoip:
        Prefix geolocation database used by the geo reflectors.
    geo_routing:
        True builds :class:`GeoRouteReflector`\\ s ("after"); False builds
        the hot-potato "before" configuration, a classic iBGP full mesh
        between the border routers (no reflectors).
    enable_best_external:
        The hidden-routes fix on border routers (Sec. 3.2); on by default.
    lp_function:
        The ``f(d)`` used by geo reflectors.
    relationships:
        Relationship of each external neighbour ASN (PROVIDER for
        upstreams, PEER for peers): the table every border router's eBGP
        import and export rules read, this dict itself, not a copy.
    """

    def __init__(
        self,
        *,
        geoip: GeoIPDatabase,
        geo_routing: bool = True,
        enable_best_external: bool = True,
        lp_function: LocalPrefFunction = linear_lp,
        relationships: dict[int, Relationship] | None = None,
        management: ManagementInterface | None = None,
    ) -> None:
        self.geoip = geoip
        self.geo_routing = geo_routing
        self.enable_best_external = enable_best_external
        self.lp_function = lp_function
        self.relationships: dict[int, Relationship] = dict(relationships or {})
        self.management = management if management is not None else ManagementInterface()

        #: Operational fault state (see :meth:`set_link_state` /
        #: :meth:`set_pop_state`); empty on a healthy network.
        self.down_links: set[frozenset[str]] = set()
        self.down_pops: set[str] = set()
        self.pop_igp, self.l2_links = build_l2_topology()
        self.router_igp = router_level_igp(self.pop_igp)
        self._pop_spf: dict[str, ShortestPaths] = all_pairs_spf(self.pop_igp)
        self._router_spf: dict[str, ShortestPaths] = all_pairs_spf(self.router_igp)

        self.engine = BgpEngine()
        self.border_routers: dict[str, BgpRouter] = {}
        self.reflectors: dict[str, GeoRouteReflector] = {}
        self.pop_of_router: dict[str, str] = {}
        self.router_locations: dict[str, GeoPoint] = {}
        #: Reflector id -> the border router whose IGP view it decides by.
        self.reflector_anchor: dict[str, str] = {}
        #: Per border router, the internal next hops whose metric moved in
        #: the last :meth:`_rebuild_igp` (see :meth:`igp_notifications`).
        self._igp_moved: dict[str, frozenset[str]] = {}
        #: Border router -> {internal next hop: metric}: the mapping its
        #: speaker decides by (a reflector: its anchor's), the same dict
        #: for the network's lifetime.  Written in place from
        #: ``_router_spf`` whenever SPF re-runs; a next hop it does not
        #: name is external and costs 0.0.
        self._igp_table: dict[str, dict[str, float]] = {}
        self._build_routers()
        for router_id, metrics in self._igp_metrics().items():
            self._igp_table[router_id].update(metrics)
        self._build_ibgp()

    # ----------------------------------------------------------------- #
    # construction
    # ----------------------------------------------------------------- #

    def _build_routers(self) -> None:
        for pop in POPS:
            for router_id in pop.router_ids():
                self._igp_table[router_id] = {}
                router = BgpRouter(
                    router_id,
                    VNS_ASN,
                    relationships=self.relationships,
                    igp_metric=self._igp_table[router_id],
                    enable_best_external=self.enable_best_external,
                )
                self.border_routers[router_id] = router
                self.pop_of_router[router_id] = pop.code
                self.router_locations[router_id] = pop.location
                self.engine.add_router(router)
        if not self.geo_routing:
            return
        for index, pop_code in enumerate(REFLECTOR_POPS):
            pop = pop_by_code(pop_code)
            rr_id = f"RR{index + 1}-{pop_code}"
            anchor = pop.router_ids()[0]
            reflector = GeoRouteReflector(
                rr_id,
                VNS_ASN,
                geoip=self.geoip,
                router_locations=self.router_locations,
                lp_function=self.lp_function,
                management=self.management,
                igp_metric=self._igp_table[anchor],
            )
            self.reflectors[rr_id] = reflector
            self.reflector_anchor[rr_id] = anchor
            self.pop_of_router[rr_id] = pop.code
            self.engine.add_router(reflector)

    def _build_ibgp(self) -> None:
        if not self.geo_routing:
            router_ids = sorted(self.border_routers)
            for i, a in enumerate(router_ids):
                for b in router_ids[i + 1 :]:
                    self.border_routers[a].add_session(
                        Session(peer_id=b, session_type=SessionType.IBGP, peer_asn=VNS_ASN)
                    )
                    self.border_routers[b].add_session(
                        Session(peer_id=a, session_type=SessionType.IBGP, peer_asn=VNS_ASN)
                    )
            return
        for router_id, router in self.border_routers.items():
            for rr_id, reflector in self.reflectors.items():
                router.add_session(
                    Session(peer_id=rr_id, session_type=SessionType.IBGP, peer_asn=VNS_ASN)
                )
                reflector.add_session(
                    Session(
                        peer_id=router_id,
                        session_type=SessionType.IBGP,
                        peer_asn=VNS_ASN,
                        rr_client=True,
                    )
                )
        rr_ids = list(self.reflectors)
        for i, a in enumerate(rr_ids):
            for b in rr_ids[i + 1 :]:
                self.reflectors[a].add_session(
                    Session(peer_id=b, session_type=SessionType.IBGP, peer_asn=VNS_ASN)
                )
                self.reflectors[b].add_session(
                    Session(peer_id=a, session_type=SessionType.IBGP, peer_asn=VNS_ASN)
                )

    def add_ebgp_session(self, router_id: str, neighbor_asn: int) -> str:
        """Configure an eBGP session on a border router; return the peer id.

        Raises
        ------
        KeyError
            For an unknown router.
        """
        router = self.border_routers[router_id]
        peer_id = external_peer_id(neighbor_asn, router_id)
        router.add_session(
            Session(peer_id=peer_id, session_type=SessionType.EBGP, peer_asn=neighbor_asn)
        )
        return peer_id

    # ----------------------------------------------------------------- #
    # fault state (driven by repro.faults)
    # ----------------------------------------------------------------- #

    def _rebuild_igp(self) -> None:
        """Recompute the IGP view from the current fault state.

        Models instantaneous IGP reconvergence (link-state protocols
        reconverge in milliseconds; BGP, which this engine does model
        message-by-message, is the slow part), and records which next-hop
        metrics the rebuild moved for :meth:`igp_notifications` before it
        writes the new ones into the speakers' mappings.
        """
        self.pop_igp, _ = build_l2_topology(
            excluded_links=frozenset(self.down_links),
            excluded_pops=frozenset(self.down_pops),
            require_connected=False,
        )
        self.router_igp = router_level_igp(self.pop_igp, require_connected=False)
        self._pop_spf = all_pairs_spf(self.pop_igp)
        self._router_spf = all_pairs_spf(self.router_igp)
        fresh = self._igp_metrics()
        self._igp_moved = {
            router_id: frozenset(
                next_hop
                for next_hop, metric in metrics.items()
                if metric != self._igp_table[router_id][next_hop]
            )
            for router_id, metrics in fresh.items()
        }
        for router_id, metrics in fresh.items():
            self._igp_table[router_id].update(metrics)

    def _igp_metrics(self) -> dict[str, dict[str, float]]:
        """Each border router's metric to every internal BGP next hop.

        The one derivation of what the speakers decide by (written into
        ``_igp_table``), so a difference between two of these tables is
        exactly what selection can observe — an unreachable next hop and
        own-PoP-down (everything) cost ``inf``.
        """
        metrics: dict[str, dict[str, float]] = {}
        for router_id in self.border_routers:
            spf = self._router_spf.get(router_id)
            metrics[router_id] = {
                next_hop: float("inf") if spf is None else spf.metric_to(next_hop)
                for next_hop in self.pop_of_router
            }
        return metrics

    def igp_notifications(self) -> list[IgpNotification]:
        """What the IGP tells each speaker about its last rebuild.

        One notification per speaker — border routers, then reflectors,
        each in id order — carrying the next hops whose metric moved from
        that speaker's vantage (a reflector's is its anchor border
        router).  The caller queues them on the engine *after* the BGP
        changes of the same event, so speakers react in delivery order.
        """
        return [
            IgpNotification(
                receiver=speaker_id,
                changed=self._igp_moved.get(
                    self.reflector_anchor.get(speaker_id, speaker_id), frozenset()
                ),
            )
            for speaker_id in (*sorted(self.border_routers), *sorted(self.reflectors))
        ]

    def has_circuit(self, a: str, b: str) -> bool:
        """Whether the L2 topology has a direct ``a``–``b`` circuit (up or down)."""
        key = {a, b}
        return any({link.a, link.b} == key for link in self.l2_links)

    def set_link_state(self, a: str, b: str, up: bool) -> bool:
        """Mark the L2 circuit ``a``–``b`` up or down; True if it changed.

        Only flips operational state and re-runs SPF — the BGP
        consequences (hot-potato decisions moving) are the caller's to
        drive: :class:`repro.faults.injector.FaultInjector` injects the
        routers' ``igp_notifications()``.

        Raises
        ------
        ValueError
            If no such circuit exists in the L2 topology.
        """
        if not self.has_circuit(a, b):
            raise ValueError(f"no L2 circuit {a}-{b}")
        key = frozenset((a, b))
        changed = (key in self.down_links) == up
        if up:
            self.down_links.discard(key)
        else:
            self.down_links.add(key)
        if changed:
            self._rebuild_igp()
        return changed

    def set_pop_state(self, code: str, up: bool) -> bool:
        """Mark a whole PoP failed or restored; True if the state changed.

        A down PoP is removed from the IGP (no traffic enters, exits, or
        transits it).  Its border routers' eBGP sessions and originations
        are torn down by the fault injector; the iBGP control plane is
        treated as out-of-band (the paper's reflectors live on a
        management network), so reflectors hosted at the PoP keep running.

        Raises
        ------
        KeyError
            For an unknown PoP code.
        """
        pop_by_code(code)  # validates
        changed = (code in self.down_pops) == up
        if up:
            self.down_pops.discard(code)
        else:
            self.down_pops.add(code)
        if changed:
            self._rebuild_igp()
        return changed

    def link_is_up(self, a: str, b: str) -> bool:
        """Whether the circuit ``a``–``b`` is operational."""
        return frozenset((a, b)) not in self.down_links

    def pop_is_up(self, code: str) -> bool:
        """Whether a PoP is operational."""
        return code not in self.down_pops

    def active_pops(self) -> tuple[PoP, ...]:
        """All PoPs currently up."""
        return tuple(pop for pop in POPS if pop.code not in self.down_pops)

    # ----------------------------------------------------------------- #
    # queries (post-convergence)
    # ----------------------------------------------------------------- #

    def routers_at_pop(self, pop_code: str) -> list[BgpRouter]:
        """Border routers located at a PoP."""
        return [
            router
            for router_id, router in self.border_routers.items()
            if self.pop_of_router[router_id] == pop_code
        ]

    def pop_l2_path(self, src_pop: str, dst_pop: str) -> list[str]:
        """The PoP sequence traffic takes inside VNS (IGP shortest path).

        Raises
        ------
        ValueError
            If the destination is unreachable — impossible on the healthy
            production topology, but faults can down an endpoint PoP or
            partition the L2 graph.
        """
        spf = self._pop_spf.get(src_pop)
        path = spf.path_to(dst_pop) if spf is not None else None
        if path is None:
            raise ValueError(f"no internal path {src_pop} -> {dst_pop}")
        return path

    def best_route(self, router_id: str, prefix: Prefix) -> Route | None:
        """Border router ``router_id``'s selected route for ``prefix``.

        Raises
        ------
        KeyError
            If ``router_id`` is not one of this network's border routers.
        """
        return self.border_routers[router_id].best(prefix)

    def egress_decision(self, entry_pop: str, prefix: Prefix) -> EgressDecision | None:
        """Where traffic entering at ``entry_pop`` exits for ``prefix``."""
        entry_router = self.routers_at_pop(entry_pop)[0].router_id
        return resolve_egress(self, entry_router, entry_pop, prefix)

    def local_external_route(self, pop_code: str, prefix: Prefix) -> Route | None:
        """The best eBGP-learned route for ``prefix`` at this PoP, if any.

        Models "probing packets forced out of VNS immediately at each PoP"
        (Sec. 4.1): the probe uses whatever external route the PoP has,
        regardless of the network-wide best.
        """
        candidates: list[Route] = []
        for router in self.routers_at_pop(pop_code):
            for route in router.adj_rib_in.routes_for(prefix):
                if route.ebgp:
                    candidates.append(route)
        if not candidates:
            return None
        return min(candidates, key=lambda r: (len(r.as_path), r.learned_from or ""))

    def converge(self) -> int:
        """Run the BGP engine to convergence; return messages delivered."""
        return self.engine.run(max_messages=CONVERGE_BUDGET)

    def total_loc_rib_size(self) -> int:
        """Sum of Loc-RIB sizes over all border routers."""
        return sum(len(r.loc_rib) for r in self.border_routers.values())

    def freeze(self) -> "FrozenNetwork":
        """A compact, read-only snapshot of the converged forwarding state.

        See :func:`repro.vns.frozen.freeze_network`: best-route tables,
        per-PoP external winners and the IGP path closure are captured;
        the BGP control plane (adj-RIBs, message engine, reflectors) is
        left behind.  The snapshot answers every read this class answers
        and raises :class:`~repro.vns.frozen.FrozenWorldError` on writes.
        """
        from repro.vns.frozen import freeze_network

        return freeze_network(self)
