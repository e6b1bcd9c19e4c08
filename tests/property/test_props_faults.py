"""Property: any fault timeline, undone by the injector, leaves no trace.

ROADMAP invariant (a): a random ``repro.faults`` timeline applied through
:class:`FaultInjector` and undone through the injector's own
:meth:`~FaultInjector.restore` must leave the world exactly as found —
the PoP × prefix egress digest *and* the frozen forwarding tables.  While
the faults are in effect, a snapshot frozen from the faulted world must
agree with it on every egress decision (one function answers both, so
this pins the frozen lookup tables).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_world
from repro.faults.events import LinkDown, PopDown, SessionDown, TransitDegrade
from repro.faults.injector import FaultInjector
from repro.geo.regions import WorldRegion
from repro.vns.frozen import freeze_network
from repro.vns.pop import POPS


@pytest.fixture(scope="module")
def world():
    """A private small world: every example perturbs and must repair it."""
    return build_world("small", seed=42)


def egress_table(network, prefixes):
    return {
        (pop.code, prefix): network.egress_decision(pop.code, prefix)
        for pop in POPS
        for prefix in prefixes
    }


# Faults are drawn as indices into the world's link / PoP / neighbour /
# region tables (resolved inside the test, where the world exists).
faults = st.lists(
    st.tuples(
        st.sampled_from(["link", "pop", "session", "session-at", "degrade"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=5,
)


def as_event(world, time_s, kind, i, j):
    network = world.service.network
    deployment = world.service.deployment
    if kind == "link":
        link = network.l2_links[i % len(network.l2_links)]
        return LinkDown(time_s=time_s, a=link.a, b=link.b)
    if kind == "pop":
        return PopDown(time_s=time_s, pop=POPS[i % len(POPS)].code)
    if kind == "degrade":
        regions = [region.value for region in WorldRegion]
        return TransitDegrade(
            time_s=time_s,
            regions=(regions[i % len(regions)], regions[j % len(regions)]),
        )
    neighbours = deployment.neighbor_asns
    asn = neighbours[i % len(neighbours)]
    router_id = None
    if kind == "session-at":
        routers = deployment.sessions[asn]
        router_id = routers[j % len(routers)]
    return SessionDown(time_s=time_s, asn=asn, router_id=router_id)


@given(faults)
@settings(max_examples=15, deadline=None)
def test_timeline_then_restore_leaves_the_world_as_found(world, timeline):
    network = world.service.network
    prefixes = sorted(world.topology.prefix_location)
    egress_before = egress_table(network, prefixes)
    frozen_before = freeze_network(network)

    injector = FaultInjector(world.service)
    try:
        for index, (kind, i, j) in enumerate(timeline):
            injector.apply(as_event(world, float(index), kind, i, j))
        assert egress_table(freeze_network(network), prefixes) == egress_table(
            network, prefixes
        )
    finally:
        injector.restore()

    assert injector.active == [] and injector.degradations == []
    assert network.engine.converged
    assert egress_table(network, prefixes) == egress_before
    assert freeze_network(network) == frozen_before
