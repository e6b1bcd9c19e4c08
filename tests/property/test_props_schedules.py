"""Property: with best-external on, the fixed point is the network's.

ROADMAP "Whose fixed point is it?" (a).  Real BGP guarantees one thing
about delivery: a speaker hears each peer's messages in the order they
were sent.  Everything else — which speaker runs next, how much of its
input queue it drains before deciding — is the schedule's.  The tests
below serve inboxes in a hypothesis-drawn order, split at drawn points
(:mod:`tests.bgp.schedules`), and require the state ``BgpEngine.run``
reaches: every Loc-RIB, Adj-RIB-In and Adj-RIB-Out and the last word to
every outside neighbour, at rest and after each event of a drawn link /
PoP / session timeline, with the repair restoring the pre-fault state
exactly.  That holds for the default deployment (geo reflectors with
best-external) and the full mesh.  It does *not*
hold for geo reflectors without best-external — the counter-example is
pinned in ``tests/bgp/test_hidden_routes.py``.

Two cheap invariants ride along on the converged default world: every
selected AS path is valley-free, and no egress holds an external route
its reflectors have not heard (nothing is hidden).
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.decision import best_external
from repro.faults.injector import FaultInjector, _repair
from repro.vns.builder import VNS_ASN, VnsConfig
from repro.vns.network import REFLECTOR_POPS
from repro.vns.pop import POPS

from ..bgp import schedules
from ..integration.test_bgp_incremental import build_unconverged, fixed_point
from .test_props_faults import as_event, pop_index
from .test_props_routing import _is_valley_free

SEED = 42
DEPLOYMENTS = {
    "geo-reflectors": VnsConfig(max_peers=8),
    "full-mesh": VnsConfig(max_peers=8, geo_routing=False),
}


def converged(deployment: str):
    service = build_unconverged("small", SEED, DEPLOYMENTS[deployment])
    service.network.engine.run()
    return service


@pytest.fixture(scope="module", params=list(DEPLOYMENTS))
def twins(request):
    """``(deployment, reference, twin)``: two identical converged services;
    every example perturbs both and must leave both as found."""
    return request.param, converged(request.param), converged(request.param)


schedule_seeds = st.integers(min_value=0, max_value=2**32 - 1)
index = st.integers(min_value=0, max_value=10_000)
control_plane_faults = st.lists(
    st.tuples(st.sampled_from(["link", "pop", "session", "session-at"]), index, index),
    min_size=1,
    max_size=3,
)


@given(schedule_seeds)
@settings(max_examples=2, deadline=None)
def test_any_schedule_builds_the_world_run_builds(twins, seed):
    deployment, reference, _ = twins
    service = build_unconverged("small", SEED, DEPLOYMENTS[deployment])
    schedules.drain(service.network.engine, schedules.drawn(seed))
    assert fixed_point(service.network.engine) == fixed_point(reference.network.engine)


@given(schedule_seeds, control_plane_faults)
@settings(max_examples=3, deadline=None)
@example(1, [("pop", pop_index("SIN"), 0), ("link", 3, 0)])  # the cut-vertex
@example(2, [("pop", pop_index(REFLECTOR_POPS[0]), 0), ("session", 0, 0)])
def test_any_schedule_rides_a_fault_timeline_to_the_state_run_reaches(twins, seed, timeline):
    _, reference, twin = twins
    engines = [reference.network.engine, twin.network.engine]
    injectors = [FaultInjector(reference), FaultInjector(twin)]
    pick = schedules.drawn(seed)
    pristine = fixed_point(engines[0])
    assert fixed_point(engines[1]) == pristine

    def perturb_converge_compare(event):
        for injector in injectors:
            injector.perturb(event)
        engines[0].run()
        schedules.drain(engines[1], pick)
        assert fixed_point(engines[0]) == fixed_point(engines[1]), event.describe()

    time_s = 0.0
    try:
        for kind, i, j in timeline:
            time_s += 1.0
            perturb_converge_compare(as_event(SimpleNamespace(service=reference), time_s, kind, i, j))
    finally:
        while injectors[0].active:
            time_s += 1.0
            perturb_converge_compare(_repair(injectors[0].active[-1], time_s))
    assert injectors[1].active == []
    assert fixed_point(engines[0]) == pristine


# --------------------------------------------------------------------- #
# invariants of the converged state
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def default_world():
    return converged("geo-reflectors")


def test_every_selected_as_path_is_valley_free(default_world):
    graph = default_world.topology.graph
    checked = 0
    for router in default_world.network.engine.routers.values():
        for _, route in router.loc_rib.items():
            asns = route.as_path
            if not asns:
                continue  # originated here (the anycast prefix)
            assert len(set(asns)) == len(asns) and VNS_ASN not in asns, route
            assert _is_valley_free(graph, (VNS_ASN,) + asns, asns[-1]), route
            checked += 1
    assert checked > 1_000


def test_with_best_external_no_egress_hides_a_route_from_its_reflectors(default_world):
    network = default_world.network
    offered = 0
    for router_id, router in network.border_routers.items():
        for prefix in router.adj_rib_in.prefixes():
            external = best_external(router.adj_rib_in.routes_for(prefix), router._igp_metric)
            if external is None:
                continue
            for reflector in network.reflectors.values():
                heard = reflector.adj_rib_in.route(router_id, prefix)
                assert heard is not None, (router_id, prefix)
                assert heard.as_path == external.as_path
            offered += 1
    assert offered > 1_000
