"""Frozen, read-only world snapshots for cheap worker shipping.

Shipping a full :class:`~repro.vns.service.VideoNetworkService` to a
campaign worker drags the whole BGP control plane along: adj-RIBs with a
route per (prefix, session), the message engine, the reflectors.  None
of that is consulted after convergence — the campaign engine only ever
reads the *converged outcome*: each border router's selected best route,
each PoP's best external route (for forced local exits), the IGP path
closure between PoPs, and the small deployment/session tables.

:func:`freeze_service` extracts exactly that into a compact, read-only
snapshot — precomputed best-route tables, the all-pairs PoP L2 closure,
session/relationship maps — and wraps it back into a real
:class:`VideoNetworkService` whose ``deployment.network`` is a
:class:`FrozenNetwork`.  Every service-level path builder
(``path_via_vns``, ``last_mile_path``, ``path_local_exit``,
``call_paths``) works unchanged on it and produces bit-identical paths,
because they only read the tables the freeze captured.  What does *not*
work is mutation: fault injection, reconvergence and management actions
raise :class:`FrozenWorldError`.

This is the world payload :mod:`repro.workload.sharded` ships to its
pool workers: orders of magnitude fewer objects than
the live control plane, so worker initialisation is dominated by the
interpreter import, not the world.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.attributes import Route
from repro.net.addressing import Prefix
from repro.net.relationships import Relationship
from repro.vns.network import EgressDecision, VnsNetwork, resolve_egress
from repro.vns.pop import POPS
from repro.vns.service import VideoNetworkService


class FrozenWorldError(RuntimeError):
    """A mutation was attempted on a frozen (read-only) world snapshot."""


@dataclass(slots=True)
class FrozenNetwork:
    """The converged forwarding state of a :class:`VnsNetwork`, frozen.

    Duck-types the read-side surface the service-level path builders and
    the campaign engine consult; every mutating entry point raises
    :class:`FrozenWorldError`.  Build one with :func:`freeze_network`.
    """

    #: router id -> prefix -> selected best route (the Loc-RIB contents).
    best_by_router: dict[str, dict[Prefix, Route]]
    #: PoP code -> prefix -> winning eBGP-learned route at that PoP
    #: (:meth:`VnsNetwork.local_external_route`, precomputed).
    external_by_pop: dict[str, dict[Prefix, Route]]
    #: (src_pop, dst_pop) -> PoP sequence (the IGP shortest-path closure).
    pop_paths: dict[tuple[str, str], list[str]]
    #: router id -> PoP code (borders only; the frozen world has no RRs).
    pop_of_router: dict[str, str]
    #: PoP code -> border router ids, in :class:`VnsNetwork` order.
    routers_at: dict[str, list[str]]
    #: neighbour ASN -> relationship, for deployment policy lookups.
    relationships: dict[int, Relationship] = field(default_factory=dict)
    #: Frozen fault state: always healthy (snapshots are taken converged).
    down_pops: frozenset[str] = frozenset()
    down_links: frozenset[frozenset[str]] = frozenset()

    # ------------------------------------------------------------------ #
    # read side (the VnsNetwork surface, answered from the tables)
    # ------------------------------------------------------------------ #

    def routers_at_pop(self, pop_code: str) -> list[str]:
        """Border router ids at a PoP (ids, not router objects)."""
        return self.routers_at.get(pop_code, [])

    def pop_l2_path(self, src_pop: str, dst_pop: str) -> list[str]:
        """The PoP sequence traffic takes inside VNS (precomputed).

        Raises
        ------
        ValueError
            If the pair was unreachable at freeze time.
        """
        path = self.pop_paths.get((src_pop, dst_pop))
        if path is None:
            raise ValueError(f"no internal path {src_pop} -> {dst_pop}")
        return list(path)

    def best_route(self, router_id: str, prefix: Prefix) -> Route | None:
        """``router_id``'s frozen best route (``KeyError``: no such border)."""
        return self.best_by_router[router_id].get(prefix)

    def egress_decision(self, entry_pop: str, prefix: Prefix) -> EgressDecision | None:
        """Where traffic entering at ``entry_pop`` exits for ``prefix``."""
        router_ids = self.routers_at.get(entry_pop)
        if not router_ids:
            raise IndexError(f"no border routers at {entry_pop!r}")
        return resolve_egress(self, router_ids[0], entry_pop, prefix)

    def local_external_route(self, pop_code: str, prefix: Prefix) -> Route | None:
        """The best eBGP-learned route at a PoP (precomputed winner)."""
        return self.external_by_pop.get(pop_code, {}).get(prefix)

    def pop_is_up(self, code: str) -> bool:
        return code not in self.down_pops

    def link_is_up(self, a: str, b: str) -> bool:
        return frozenset((a, b)) not in self.down_links

    def total_loc_rib_size(self) -> int:
        return sum(len(bests) for bests in self.best_by_router.values())

    # ------------------------------------------------------------------ #
    # write side: frozen means frozen
    # ------------------------------------------------------------------ #

    def _read_only(self, operation: str) -> FrozenWorldError:
        return FrozenWorldError(
            f"cannot {operation} on a frozen world snapshot; rebuild the live "
            "VideoNetworkService for fault injection or management actions"
        )

    def set_link_state(self, a: str, b: str, up: bool) -> bool:
        raise self._read_only(f"set link state {a}-{b}")

    def set_pop_state(self, code: str, up: bool) -> bool:
        raise self._read_only(f"set PoP state {code}")

    def converge(self) -> int:
        raise self._read_only("run BGP convergence")


def freeze_network(network: VnsNetwork) -> FrozenNetwork:
    """Snapshot a converged :class:`VnsNetwork` into a :class:`FrozenNetwork`.

    Captures each border router's Loc-RIB bests, the per-PoP winning
    external route for every prefix any local session heard, and the
    all-pairs PoP L2 path closure.  Route objects are shared, not copied,
    so freezing is cheap and the pickle deduplicates.
    """
    best_by_router: dict[str, dict[Prefix, Route]] = {}
    routers_at: dict[str, list[str]] = {}
    pop_of_router: dict[str, str] = {}
    for router_id, router in network.border_routers.items():
        best_by_router[router_id] = dict(router.loc_rib)
        pop_code = network.pop_of_router[router_id]
        routers_at.setdefault(pop_code, []).append(router_id)
        pop_of_router[router_id] = pop_code

    external_by_pop: dict[str, dict[Prefix, Route]] = {}
    for pop in POPS:
        heard: set[Prefix] = set()
        for router in network.routers_at_pop(pop.code):
            heard.update(router.adj_rib_in.prefixes())
        winners: dict[Prefix, Route] = {}
        for prefix in heard:
            route = network.local_external_route(pop.code, prefix)
            if route is not None:
                winners[prefix] = route
        external_by_pop[pop.code] = winners

    pop_paths: dict[tuple[str, str], list[str]] = {}
    for src in POPS:
        for dst in POPS:
            try:
                pop_paths[(src.code, dst.code)] = network.pop_l2_path(
                    src.code, dst.code
                )
            except ValueError:
                continue  # unreachable under the frozen fault state

    return FrozenNetwork(
        best_by_router=best_by_router,
        external_by_pop=external_by_pop,
        pop_paths=pop_paths,
        pop_of_router=pop_of_router,
        routers_at=routers_at,
        relationships=dict(network.relationships),
        down_pops=frozenset(network.down_pops),
        down_links=frozenset(network.down_links),
    )


def freeze_service(service: VideoNetworkService) -> VideoNetworkService:
    """A compact, read-only snapshot of ``service``.

    The result is a real :class:`VideoNetworkService` sharing the (small)
    topology, routing and GeoIP objects, with ``deployment.network``
    replaced by a :class:`FrozenNetwork`.  All path builders produce
    bit-identical output; mutation raises :class:`FrozenWorldError`.
    Freezing an already-frozen service returns it unchanged.
    """
    if is_frozen(service):
        return service
    from dataclasses import replace as dc_replace

    deployment = service.deployment
    frozen_deployment = dc_replace(
        deployment,
        network=freeze_network(deployment.network),  # type: ignore[arg-type]
        _session_pops={
            asn: list(deployment.session_pops(asn))
            for asn in deployment.neighbor_asns
        },
    )
    return VideoNetworkService(
        service.topology, service.routing, frozen_deployment, service.geoip
    )


def is_frozen(service: VideoNetworkService) -> bool:
    """Whether ``service`` carries a frozen (read-only) network."""
    return isinstance(service.deployment.network, FrozenNetwork)
