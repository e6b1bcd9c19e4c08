"""The incremental control plane ≡ full recomputation, state for state.

A converged world is defined by its fixed point (DESIGN.md section 10):
every Loc-RIB, Adj-RIB-In and Adj-RIB-Out and the last word to every
outside neighbour.  ``BgpEngine.run`` serves whole inboxes and decides
each touched prefix once; ``BgpEngine.step`` delivers one message at a
time and is the oracle ``run`` is held against, at rest and after every
event of a fault timeline.  ``BgpRouter._decide`` skips the advertisement
diff when ``(best, iBGP source)`` is unchanged, and ``best_route`` selects
by one lexicographic key: neither may change the state, which the tests
below hold against a full recomputation (``refresh_advertisements``) and
against the staged reference run with the skip disabled (same schedule,
so there the message count agrees too).  An IGP notification re-decides
only the prefixes through the next hops it names; the fault-timeline test
also holds that against the full walk — fewer decisions, and still
nothing left to send.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import perf
from repro.bgp import decision
from repro.bgp import router as router_module
from repro.bgp.propagation import AsLevelRouting
from repro.bgp.engine import BgpEngine
from repro.bgp.messages import IgpNotification
from repro.bgp.router import BgpRouter
from repro.experiments.common import _MAX_PEERS, _TOPOLOGY_CONFIGS, WorldScale, build_world
from repro.faults import (
    FaultInjector,
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
)
from repro.net.topology import generate_topology
from repro.vns.builder import VnsConfig, build_vns
from repro.vns.service import VideoNetworkService

SEED = 7


def adj_rib_out(router: BgpRouter) -> dict:
    return {peer: router.adj_rib_out.routes_from(peer) for peer in router.sessions}


def control_plane_state(engine: BgpEngine) -> dict:
    """Every router's Loc-RIB, Adj-RIB-In and Adj-RIB-Out."""
    return {
        router_id: (
            dict(router.loc_rib.items()),
            {peer: router.adj_rib_in.routes_from(peer) for peer in router.sessions},
            adj_rib_out(router),
        )
        for router_id, router in engine.routers.items()
    }


def external_announcements(engine: BgpEngine) -> dict:
    """What each outside neighbour was last told, per prefix (``None``: withdrawn)."""
    last = {}
    for message in engine.external_outbox:
        last[message.receiver, message.prefix] = getattr(message, "route", None)
    return last


def fixed_point(engine: BgpEngine) -> tuple[dict, dict]:
    """The state a converged world is defined by (DESIGN.md section 10)."""
    assert engine.converged
    return control_plane_state(engine), external_announcements(engine)


def build_unconverged(
    scale: str, seed: int = SEED, config: VnsConfig | None = None
) -> VideoNetworkService:
    """``VideoNetworkService.build`` up to, not including, BGP convergence.

    The engine holds the start-up table transfers, undelivered; the
    caller picks the schedule that delivers them.
    """
    scale = WorldScale(scale)
    if config is None:
        config = VnsConfig(max_peers=_MAX_PEERS[scale])
    rng = np.random.default_rng(seed)
    topology = generate_topology(_TOPOLOGY_CONFIGS[scale], rng)
    routing = AsLevelRouting(topology.graph)
    geoip = topology.build_geoip()
    deployment = build_vns(topology, routing, geoip, config, rng, converge=False)
    return VideoNetworkService(topology, routing, deployment, geoip)


def assert_refresh_is_a_no_op(engine: BgpEngine, when: str) -> None:
    assert engine.converged
    for router in engine.routers.values():
        before = adj_rib_out(router)
        assert router.refresh_advertisements() == [], (when, router)
        assert adj_rib_out(router) == before, (when, router)


def converge_counting_notification_work(
    engine: BgpEngine,
) -> tuple[Counter[str], Counter[str]]:
    """Run to convergence; per router, the ``_decide`` calls its IGP
    notifications cost and what walking its whole table would have."""
    spent: Counter[str] = Counter()
    full_walk: Counter[str] = Counter()
    perf.enable()
    try:
        while not engine.converged:
            before = perf.counter("bgp.decide.calls")
            engine.step()
            message = engine.last_delivered
            if not isinstance(message, IgpNotification):
                continue
            # A notification installs nothing: the table is as it found it.
            router = engine.routers[message.receiver]
            table = router.adj_rib_in.prefixes() | set(router.originated)
            spent[router.router_id] += perf.counter("bgp.decide.calls") - before
            full_walk[router.router_id] += len(table)
    finally:
        perf.disable()
    return spent, full_walk


def fault_timeline(service: VideoNetworkService) -> tuple:
    """Link, cut-vertex PoP, reflector-free PoP and upstream session, each repaired."""
    upstream = service.deployment.upstreams[0]
    return (
        LinkDown(time_s=10.0, a="LON", b="ASH"),
        LinkUp(time_s=20.0, a="LON", b="ASH"),
        PopDown(time_s=30.0, pop="SIN"),  # the cut-vertex: strands next hops
        PopUp(time_s=40.0, pop="SIN"),
        PopDown(time_s=50.0, pop="LON"),
        PopUp(time_s=60.0, pop="LON"),
        SessionDown(time_s=70.0, asn=upstream),
        SessionUp(time_s=80.0, asn=upstream),
    )


def step_to_convergence(engine: BgpEngine) -> None:
    """The oracle schedule: deliver the single oldest message, repeat."""
    while engine.step():
        pass


@pytest.mark.parametrize(
    "scale", ["small", pytest.param("medium", marks=pytest.mark.slow)]
)
def test_one_message_at_a_time_reaches_the_state_run_reaches(scale):
    """``while engine.step()`` ≡ ``engine.run()``, state for state.

    ``step`` is how tests script exact arrival orders and the reference
    every schedule ``run`` may use is held against: same Loc-RIB,
    Adj-RIB-In and Adj-RIB-Out on every speaker and the same last word
    to every outside neighbour — at rest and (SMALL) after each event of
    the fault timeline below.
    """
    stepped, ran = build_unconverged(scale), build_unconverged(scale)
    engines = [stepped.network.engine, ran.network.engine]
    assert not engines[0].converged
    step_to_convergence(engines[0])
    engines[1].run()
    assert fixed_point(engines[0]) == fixed_point(engines[1])
    if scale != "small":
        return
    pristine = fixed_point(engines[1])
    injectors = [FaultInjector(stepped), FaultInjector(ran)]
    for event in fault_timeline(ran):
        for injector in injectors:
            injector.perturb(event)
        step_to_convergence(engines[0])
        engines[1].run()
        assert fixed_point(engines[0]) == fixed_point(engines[1]), event.describe()
    assert fixed_point(engines[1]) == pristine


def test_skip_is_sound_across_a_fault_timeline():
    """Incremental state ≡ full recomputation, at rest and after every event.

    Every IGP event (link and PoP) costs each router at most its full
    walk and the routers together strictly less.  "Strictly" is per
    event, not per router: a reflector holds a candidate through nearly
    every egress, and a router whose own PoP went down sees every next
    hop move — those still re-decide their whole table.
    """
    world = build_world("small", seed=SEED)
    service = world.service
    engine = service.network.engine
    assert_refresh_is_a_no_op(engine, "converged")

    pristine = control_plane_state(engine)
    injector = FaultInjector(service)
    for event in fault_timeline(service):
        injector.perturb(event)
        spent, full_walk = converge_counting_notification_work(engine)
        assert set(spent) == set(full_walk)
        if isinstance(event, (SessionDown, SessionUp)):
            assert spent == {}, event.describe()  # no SPF run, no notification
        else:
            assert set(spent) == set(engine.routers), event.describe()
            for router_id, decisions in spent.items():
                assert decisions <= full_walk[router_id], (event.describe(), router_id)
            assert sum(spent.values()) < sum(full_walk.values()), event.describe()
        assert_refresh_is_a_no_op(engine, event.describe())
    assert control_plane_state(engine) == pristine


def build_with_reference_decisions(scale: str, monkeypatch: pytest.MonkeyPatch):
    """A world converged by the staged process with the skip disabled."""

    def staged_best_route(routes, igp_metric):
        ordered = decision.decision_order(routes, igp_metric)
        return ordered[0] if ordered else None

    full_decide = BgpRouter._decide

    def decide_without_skip(self, prefix):
        self._advertised_source.pop(prefix, None)
        return full_decide(self, prefix)

    with monkeypatch.context() as patch:
        patch.setattr(decision, "best_route", staged_best_route)
        patch.setattr(router_module, "best_route", staged_best_route)
        patch.setattr(BgpRouter, "_decide", decide_without_skip)
        return build_world(scale, seed=SEED)


@pytest.mark.parametrize(
    "scale", ["small", pytest.param("medium", marks=pytest.mark.slow)]
)
def test_convergence_is_message_identical_to_the_staged_reference(scale, monkeypatch):
    reference = build_with_reference_decisions(scale, monkeypatch).service.network.engine
    engine = build_world(scale, seed=SEED).service.network.engine
    assert engine.delivered == reference.delivered
    assert engine.external_outbox == reference.external_outbox
    assert control_plane_state(engine) == control_plane_state(reference)
