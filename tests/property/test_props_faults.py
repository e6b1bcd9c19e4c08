"""Property: any fault timeline, undone by the injector, leaves no trace.

ROADMAP invariant (a): a random ``repro.faults`` timeline applied through
:class:`FaultInjector` and undone through the injector's own
:meth:`~FaultInjector.restore` must leave the world exactly as found —
the PoP × prefix egress digest *and* the frozen forwarding tables.  While
the faults are in effect, a snapshot frozen from the faulted world must
agree with it on every egress decision (one function answers both, so
this pins the frozen lookup tables).

Second property: next-hop tracking is exact.  A world whose speakers are
told *which* next-hop metrics an SPF rebuild moved (and re-decide only the
prefixes through them) and a twin whose notifications carry no delta (the
full table walk) must deliver the same messages in the same order and hold
the same RIBs on every router after every convergence — including when
several perturbations pile up before one convergence, as long as they run
SPF for one circuit or PoP (however often it flaps).  Two *different* SPF
changes in one window are the one place the twins part: the full walk
reacts to the second rebuild already when the first's notification
arrives, a tracking speaker when the second's does — the same messages in
another order, and the same fixed point (see the named case below).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import IgpNotification
from repro.experiments.common import build_world
from repro.faults.events import LinkDown, PopDown, SessionDown, TransitDegrade
from repro.faults.injector import FaultInjector, _repair
from repro.geo.regions import WorldRegion
from repro.vns.frozen import freeze_network
from repro.vns.network import REFLECTOR_POPS
from repro.vns.pop import POPS

from ..integration.test_bgp_incremental import control_plane_state


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


# --------------------------------------------------------------------- #
# delta notifications ≡ full-walk notifications
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def twins():
    """Two identical small worlds; the second's IGP never names a delta."""
    tracked, walked = build_world("small", seed=42), build_world("small", seed=42)
    network = walked.service.network
    with_deltas = network.igp_notifications
    network.igp_notifications = lambda: [
        IgpNotification(receiver=n.receiver) for n in with_deltas()
    ]
    return tracked, walked


def deliver_all(network):
    """Converge; the delivered messages, a notification reduced to its receiver."""
    engine, delivered = network.engine, []
    while engine.step():
        message = engine.last_delivered
        if isinstance(message, IgpNotification):
            message = IgpNotification(receiver=message.receiver)
        delivered.append(message)
    return delivered


def play_on_twins(twins, windows, compare):
    """Play ``windows`` — each a list of faults perturbed before one
    convergence — on both worlds, calling ``compare(delivered_tracked,
    delivered_walked, when)`` and comparing every RIB after each
    convergence; then repair fault by fault, one window each.

    A fault is ``(kind, i, j)`` as :func:`as_event` reads it, plus
    ``("undo", i, _)``: repair the ``i``-th most recent active fault.
    """
    tracked, _ = twins
    injectors = [FaultInjector(world.service) for world in twins]
    networks = [world.service.network for world in twins]
    engines = [network.engine for network in networks]
    time_s = 0.0

    def perturb_both(event):
        for injector in injectors:
            injector.perturb(event)

    def converge_and_compare(when):
        compare(*(deliver_all(network) for network in networks), when)
        assert control_plane_state(engines[0]) == control_plane_state(engines[1]), when

    try:
        for window in windows:
            for kind, i, j in window:
                time_s += 1.0
                active = injectors[0].active
                if kind != "undo":
                    perturb_both(as_event(tracked, time_s, kind, i, j))
                elif active:
                    perturb_both(_repair(active[-1 - i % len(active)], time_s))
            converge_and_compare(window)
    finally:
        while injectors[0].active:
            time_s += 1.0
            perturb_both(_repair(injectors[0].active[-1], time_s))
            converge_and_compare("restore")
    assert injectors[1].active == []


def same_sequence(delivered_tracked, delivered_walked, when):
    assert delivered_tracked == delivered_walked, when


def link_index(network, a, b):
    return next(
        index
        for index, link in enumerate(network.l2_links)
        if {link.a, link.b} == {a, b}
    )


def pop_index(code):
    return next(index for index, pop in enumerate(POPS) if pop.code == code)


def flap(kind, index, perturbs):
    """Down, up, down, ... of one circuit or PoP: ``perturbs`` events."""
    return [(kind, index, 0), ("undo", 0, 0), (kind, index, 0)][:perturbs]


@pytest.mark.parametrize(
    "windows",
    [
        pytest.param(lambda net: [flap("link", 0, 2)], id="link-down-up-in-one-window"),
        pytest.param(
            lambda net: [flap("link", link_index(net, "AMS", "SIN"), 3)],
            id="link-down-up-down-in-one-window",
        ),
        pytest.param(
            lambda net: [[("session", 0, 0), *flap("pop", pop_index("LON"), 2)]],
            id="session-and-pop-flap-in-one-window",
        ),
        pytest.param(
            lambda net: [[("pop", pop_index(REFLECTOR_POPS[0]), 0)], [("link", 1, 0)]],
            id="reflector-pop-down",
        ),
        pytest.param(
            lambda net: [[("pop", pop_index("SIN"), 0)], [("session", 0, 0), ("link", 2, 0)]],
            id="cut-vertex-pop-down",
        ),
    ],
)
def test_delta_notifications_match_the_full_walk_on_named_timelines(twins, windows):
    play_on_twins(twins, windows(twins[0].service.network), same_sequence)


def test_two_different_links_in_one_window_reorder_but_agree(twins):
    """OSL–LON and SIN–SYD cut before one convergence.

    When the first cut's notification arrives the second SPF run has
    already happened: a full walk re-decides everything against it there
    and then, a tracking speaker waits for the second notification.  The
    per-speaker bursts interleave differently, so the *order* differs —
    the messages delivered and every RIB do not, and a full recomputation
    on the tracking world finds nothing stale.
    """
    network = twins[0].service.network
    window = [
        ("link", link_index(network, "OSL", "LON"), 0),
        ("link", link_index(network, "SIN", "SYD"), 0),
    ]
    reordered = []

    def same_messages(delivered_tracked, delivered_walked, when):
        assert Counter(map(str, delivered_tracked)) == Counter(map(str, delivered_walked)), when
        reordered.append(delivered_tracked != delivered_walked)
        for router in network.engine.routers.values():
            assert router.refresh_advertisements() == [], (when, router)

    play_on_twins(twins, [window], same_messages)
    assert reordered[0], "the window no longer separates the two designs"


index = st.integers(min_value=0, max_value=10_000)
session_faults = st.lists(
    st.tuples(st.sampled_from(["session", "session-at"]), index, index), max_size=2
)
# One window runs SPF for at most one circuit or PoP — flapped up to three
# perturbations deep — next to any session faults, or repairs one fault.
windows = st.one_of(
    st.builds(
        lambda sessions, kind, i, perturbs: sessions + flap(kind, i, perturbs),
        session_faults,
        st.sampled_from(["link", "pop"]),
        index,
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("undo"), index, st.just(0)).map(lambda fault: [fault]),
)


@given(st.lists(windows, min_size=1, max_size=3))
@settings(max_examples=10, deadline=None)
def test_delta_notifications_match_the_full_walk(twins, windows):
    play_on_twins(twins, windows, same_sequence)
