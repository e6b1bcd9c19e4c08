"""The hidden-routes pathology and the best-external fix (Sec. 3.2).

Reconstructs the paper's example: egress router A is geographically
closer to prefix p than router B, but the reflector hears B's route
first, assigns it a high geo preference, and reflects it; A then prefers
the reflected route and — without best-external — never tells the
reflector about its own, better external route.  The network converges to
the wrong egress.  Enabling "advertise best external" repairs it.

The second half measures the same pathology on a whole SMALL world: with
geo reflectors and no best-external the converged state belongs to the
delivery schedule, not to the network (DESIGN.md section 10).
"""

import pytest

from repro.bgp.attributes import Route
from repro.bgp.engine import BgpEngine, ConvergenceError
from repro.bgp.messages import Update
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.geo.coords import GeoPoint
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix
from repro.faults import FaultInjector, PopDown, PopUp
from repro.vns.builder import VnsConfig
from repro.vns.geo_rr import GeoRouteReflector

from ..integration.test_bgp_incremental import build_unconverged, control_plane_state
from . import schedules

ASN = 65000
PFX = Prefix.parse("203.0.113.0/24")
AMSTERDAM = GeoPoint(52.37, 4.90)
SINGAPORE = GeoPoint(1.35, 103.82)
NEAR_AMSTERDAM = GeoPoint(51.9, 4.5)


def build(enable_best_external: bool) -> tuple[BgpEngine, BgpRouter, BgpRouter]:
    geoip = GeoIPDatabase()
    geoip.register(PFX, NEAR_AMSTERDAM, "NL")
    engine = BgpEngine()
    router_a = BgpRouter("A", ASN, enable_best_external=enable_best_external)
    router_b = BgpRouter("B", ASN, enable_best_external=enable_best_external)
    reflector = GeoRouteReflector(
        "RR",
        ASN,
        geoip=geoip,
        router_locations={"A": AMSTERDAM, "B": SINGAPORE},
    )
    for router in (router_a, router_b):
        router.add_session(
            Session(peer_id="RR", session_type=SessionType.IBGP, peer_asn=ASN)
        )
        reflector.add_session(
            Session(
                peer_id=router.router_id,
                session_type=SessionType.IBGP,
                peer_asn=ASN,
                rr_client=True,
            )
        )
        router.add_session(
            Session(
                peer_id=f"ext-{router.router_id}",
                session_type=SessionType.EBGP,
                peer_asn=100,
            )
        )
        engine.add_router(router)
    engine.add_router(reflector)
    return engine, router_a, router_b


def inject_external(engine: BgpEngine, router_id: str) -> None:
    engine.inject(
        Update(
            sender=f"ext-{router_id}",
            receiver=router_id,
            route=Route(
                prefix=PFX, as_path=(100, 9), next_hop=f"ext-{router_id}"
            ),
        )
    )


class TestHiddenRoutes:
    def test_worst_case_order_without_best_external(self):
        engine, router_a, router_b = build(enable_best_external=False)
        inject_external(engine, "B")  # the far egress is heard first
        engine.run()
        inject_external(engine, "A")
        engine.run()
        # A's superior external route is hidden: A itself prefers the
        # reflected route via B, so the network exits at B.
        assert router_a.best(PFX).next_hop == "B"
        reflector = engine.router("RR")
        assert len(reflector.adj_rib_in.routes_for(PFX)) == 1

    def test_best_external_fix(self):
        engine, router_a, router_b = build(enable_best_external=True)
        inject_external(engine, "B")
        engine.run()
        inject_external(engine, "A")
        engine.run()
        # With best external, A keeps advertising its external route even
        # while preferring the reflected one, the reflector re-ranks, and
        # the network converges to the geographically correct egress.
        assert router_a.best(PFX).ebgp
        assert router_a.best(PFX).learned_from == "ext-A"
        assert router_b.best(PFX).next_hop == "A"

    def test_good_order_converges_either_way(self):
        engine, router_a, router_b = build(enable_best_external=False)
        inject_external(engine, "A")  # the near egress first: no hiding
        engine.run()
        inject_external(engine, "B")
        engine.run()
        assert router_a.best(PFX).ebgp
        assert router_b.best(PFX).next_hop == "A"

    def test_geo_preference_values(self):
        engine, router_a, router_b = build(enable_best_external=True)
        inject_external(engine, "A")
        inject_external(engine, "B")
        engine.run()
        reflected = router_b.best(PFX)
        # The geo-assigned preference is "always much higher than the
        # default value of 100".
        assert reflected.local_pref > 1000


# --------------------------------------------------------------------- #
# the counter-example: without best-external the fixed point is the queue's
# --------------------------------------------------------------------- #


def seed7_world(pick=None, *, enable_best_external: bool = False):
    """SMALL seed 7, geo reflectors; converged by ``pick`` (default: ``run``)."""
    config = VnsConfig(max_peers=8, enable_best_external=enable_best_external)
    service = build_unconverged("small", seed=7, config=config)
    if pick is None:
        service.network.engine.run()
    else:
        schedules.drain(service.network.engine, pick)
    return service


def loc_ribs(service) -> dict:
    return {
        router_id: dict(router.loc_rib.items())
        for router_id, router in service.network.engine.routers.items()
    }


class TestTheStateIsTheQueuesWithoutBestExternal:
    def test_two_named_schedules_converge_to_different_loc_ribs(self):
        """Whole inboxes vs half inboxes, both round-robin by name.

        A reflector that drains its whole inbox sees every egress at once
        and picks the geographically best.  Served half an inbox, it
        reflects the best of that half; the border router holding the
        better egress prefers the reflected route (geo LOCAL_PREF beats
        its eBGP default) and never offers its own — hidden, for good.
        """
        whole_world = seed7_world(schedules.whole_inboxes())
        reflectors = sorted(whole_world.network.reflectors)
        whole = whole_world.network.engine
        half = seed7_world(schedules.half_inboxes()).network.engine
        reflector = reflectors[0]
        best_whole, best_half = (
            dict(engine.routers[reflector].loc_rib.items()) for engine in (whole, half)
        )
        moved = sorted(p for p in best_whole if best_whole[p] != best_half.get(p))
        assert len(moved) == 31 and len(best_whole) == len(best_half)
        assert [str(p) for p in moved[:3]] == ["16.0.128.0/20", "16.1.16.0/20", "16.1.80.0/20"]
        worse = 0
        for prefix in moved:
            winner = best_whole[prefix].next_hop  # the egress the full view selects
            assert best_whole[prefix].local_pref >= best_half[prefix].local_pref
            worse += best_whole[prefix].local_pref > best_half[prefix].local_pref
            # In the half-inbox world that egress still holds its external
            # route, prefers the reflected one, and has told no reflector.
            border = half.routers[winner]
            assert any(route.ebgp for route in border.adj_rib_in.routes_for(prefix))
            assert not border.best(prefix).ebgp
            for reflector_id in reflectors:
                assert half.routers[reflector_id].adj_rib_in.route(winner, prefix) is None
        assert worse == 8  # strictly farther egress; the other 23 are ties in f(d)

    def test_best_external_makes_the_same_two_schedules_agree(self):
        whole = seed7_world(schedules.whole_inboxes(), enable_best_external=True)
        half = seed7_world(schedules.half_inboxes(), enable_best_external=True)
        assert loc_ribs(whole) == loc_ribs(half) == loc_ribs(
            seed7_world(enable_best_external=True)
        )

    def test_a_repaired_pop_failure_does_not_restore_the_pre_fault_state(self):
        service = seed7_world()
        engine = service.network.engine
        pristine = control_plane_state(engine)
        injector = FaultInjector(service)
        assert injector.apply(PopDown(time_s=1.0, pop="SIN")) == 10_529
        assert injector.apply(PopUp(time_s=2.0, pop="SIN")) == 2_191
        assert injector.active == [] and engine.converged
        after = control_plane_state(engine)
        moved = {
            prefix
            for router_id, (loc_rib, _, _) in after.items()
            for prefix in loc_rib
            if loc_rib[prefix] != pristine[router_id][0].get(prefix)
        }
        assert len(moved) == 29  # SIN's egresses came back too late to be heard

    @pytest.mark.slow
    def test_one_message_at_a_time_never_converges_on_the_repair(self):
        """The old schedule livelocks on a supported configuration.

        ``PopDown(SIN)`` converges one message at a time (27,259
        messages); the ``PopUp`` does not, at 400k messages or at 10M
        (measured once; not repeated here).  The by-speaker ``run``
        converges both (test above).
        """
        service = seed7_world()
        engine = service.network.engine
        injector = FaultInjector(service)
        injector.perturb(PopDown(time_s=1.0, pop="SIN"))
        before = engine.delivered
        while engine.step():
            pass
        assert engine.delivered - before == 27_259
        injector.perturb(PopUp(time_s=2.0, pop="SIN"))
        for _ in range(400_000):
            assert engine.step()
        with pytest.raises(ConvergenceError) as excinfo:
            engine.run(max_messages=0)  # spends nothing: the snapshot, typed
        deepest = list(excinfo.value.queue_depths)[:2]
        assert sorted(deepest) == sorted(service.network.reflectors)
        assert excinfo.value.pending > 10_000
