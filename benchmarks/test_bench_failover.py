"""Benchmarks the failover suite: fault injection across the VNS overlay.

Not a paper figure — the paper measures the steady state its circuits buy
— but the stress companion to it: cut every long-haul circuit, kill a
PoP, flap an upstream, degrade transit, and check the overlay heals.

Shape criteria (ISSUE acceptance): every drill converges with zero
ConvergenceError and leaves the world as found; after each drill's final
repair no prefix is left permanently blackholed (the production mesh is
biconnected except for SYD behind SIN, and even that restores on
repair); media loss during failover is bounded and returns to the
steady-state level.  The suite's deterministic columns are exact gates
(``CI_GATES["failover"]``).

The second bench is the deterministic gate on what a fault timeline costs
the control plane: 24 down/up events on a SMALL world, counted in
messages delivered and ``_decide`` runs (``CI_GATES["failover"]``).
"""

import pytest

from repro import perf
from repro.experiments import failover
from repro.experiments.common import World, build_world
from repro.faults import (
    FaultInjector,
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
)
from repro.vns.links import VNS_LONG_HAUL_LINKS

from .conftest import BENCH_SEED, record_row, run_once

#: PoPs the churn timeline fails, led by the SIN cut-vertex (SYD sits
#: behind it; ASH hosts a reflector) — `bench_e2e`'s `fault_churn` set.
CHURN_POPS = ("SIN", "LON", "ASH", "SYD")


@pytest.fixture(scope="module")
def failover_world() -> World:
    """A private world: drills mutate (and repair) the service.

    Kept separate from the session-scoped ``medium_world`` so a failure
    mid-drill can never leak fault state into the figure benchmarks.
    """
    return build_world("medium", seed=BENCH_SEED)


def test_bench_failover_suite(benchmark, failover_world, show):
    # Zero ConvergenceError: run() raising would fail the test here.
    result = run_once(benchmark, failover.run, failover_world)
    show(result.render())

    # --- shape assertions (ISSUE acceptance criteria) --------------------
    assert result.drills, "suite ran no drills"

    # (b) After every drill's repair, no prefix stays blackholed and the
    #     metered routing state is the one it started from.
    for drill in result.drills:
        assert not drill.permanent_blackholes, drill.name
        assert drill.restored, drill.name
    assert result.permanent_blackhole_count() == 0

    # Reconvergence is bounded: no event needs a runaway message storm.
    message_cdf = result.message_cdf()
    assert message_cdf.quantile(1.0) < 100_000

    # (c) Media loss during failover is bounded and recovers.
    for drill in result.drills:
        media = drill.media
        if media is None:
            continue
        assert media.failover_loss_percent <= 100.0
        assert media.recovered_loss_percent < media.failover_loss_percent + 1.0
        assert abs(media.recovered_loss_percent - media.steady_loss_percent) < 2.0

    # The whole-PoP failure visibly opens a blackhole window mid-failover
    # and anycast re-catchment moves that PoP's users elsewhere.
    pop = next(d for d in result.drills if d.name == "pop-failure:SIN")
    assert any(impact.blackholes_during for impact in pop.impacts)
    assert "SIN" in pop.before.entries.values()
    assert "SIN" not in pop.during.entries.values()
    assert pop.after.entries == pop.before.entries

    # Transit degradation is pure data plane: zero BGP messages.
    quiet = next(
        d for d in result.drills if d.name.startswith("transit-degradation")
    )
    assert quiet.total_messages == 0
    assert quiet.media.failover_loss_percent > quiet.media.steady_loss_percent
    record_row("failover", **result.to_row())


def churn_timeline(world: World) -> list:
    """Four long-haul circuits, four PoPs, four upstreams: each down, then up."""
    pairs = [
        (LinkDown, LinkUp, {"a": a, "b": b}) for a, b in VNS_LONG_HAUL_LINKS[:4]
    ]
    pairs += [(PopDown, PopUp, {"pop": code}) for code in CHURN_POPS]
    pairs += [
        (SessionDown, SessionUp, {"asn": asn})
        for asn in world.service.deployment.upstreams[:4]
    ]
    events = []
    for slot, (down, up, fields) in enumerate(pairs):
        events.append(down(time_s=2.0 * slot, **fields))
        events.append(up(time_s=2.0 * slot + 1.0, **fields))
    return events


def test_bench_failover_timeline_small(benchmark, show):
    """Control-plane work of a fault timeline, as exact counts."""
    world = build_world("small", seed=BENCH_SEED)
    engine = world.service.network.engine
    injector = FaultInjector(world.service)
    timeline = churn_timeline(world)

    def play() -> int:
        return sum(injector.apply(event) for event in timeline)

    delivered_before = engine.delivered
    perf.reset()
    perf.enable()
    try:
        delivered = run_once(benchmark, play)
        counters = perf.snapshot().counters
    finally:
        perf.disable()

    assert delivered == engine.delivered - delivered_before
    assert injector.active == [] and engine.converged
    row = {
        "events": len(timeline),
        "messages_delivered": delivered,
        "decisions": int(counters["bgp.decide.calls"]),
        "decisions_unchanged": int(counters["bgp.decide.unchanged"]),
        "nht_notifications": int(counters["bgp.nht.notifications"]),
        "nht_prefixes_affected": int(counters["bgp.nht.prefixes_affected"]),
        "nht_empty": int(counters["bgp.nht.empty"]),
    }
    show(
        f"fault timeline (small): {row['events']} events, {delivered} messages,"
        f" {row['decisions']} decisions ({row['decisions_unchanged']} unchanged);"
        f" {row['nht_notifications']} IGP notifications re-decided"
        f" {row['nht_prefixes_affected']} prefixes ({row['nht_empty']} empty)"
    )
    # Every IGP event notifies every speaker once; session events none.
    igp_events = sum(
        not isinstance(event, (SessionDown, SessionUp)) for event in timeline
    )
    assert row["nht_notifications"] == igp_events * len(engine.routers)
    assert row["nht_prefixes_affected"] < row["decisions"]
    record_row("failover", scales={"small": {"timeline": row}})
