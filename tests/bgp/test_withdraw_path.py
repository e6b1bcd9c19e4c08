"""The withdraw path end to end: originate → converge → withdraw → clean.

Complements the per-router unit tests: runs real engine convergence and
checks that after a withdrawal nothing lingers anywhere — Loc-RIBs,
Adj-RIBs-In, or the announcements made to external peers.
"""

from repro.bgp.engine import BgpEngine
from repro.bgp.messages import Update, Withdraw
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")
ASN = 65000


def build_mesh(n: int = 3, externals: tuple[str, ...] = ("ext-a",)):
    """A full iBGP mesh of ``n`` routers; router r0 also has eBGP peers."""
    engine = BgpEngine()
    routers = [BgpRouter(f"r{i}", ASN) for i in range(n)]
    for i, router in enumerate(routers):
        for j, peer in enumerate(routers):
            if i != j:
                router.add_session(
                    Session(
                        peer_id=peer.router_id,
                        session_type=SessionType.IBGP,
                        peer_asn=ASN,
                    )
                )
        engine.add_router(router)
    for ext in externals:
        routers[0].add_session(
            Session(peer_id=ext, session_type=SessionType.EBGP, peer_asn=100)
        )
    return engine, routers


def ribs_clean(router: BgpRouter) -> bool:
    return router.best(PFX) is None and not router.loc_rib


class TestWithdrawPath:
    def test_originate_converge_withdraw_converge(self):
        engine, routers = build_mesh()
        origin = routers[0]

        engine.inject(origin.originate(PFX))
        engine.run()
        for router in routers:
            assert router.best(PFX) is not None
        announced = [
            m
            for m in engine.external_outbox
            if isinstance(m, Update) and m.receiver == "ext-a"
        ]
        assert announced, "origination never reached the external peer"

        engine.inject(origin.withdraw_origination(PFX))
        engine.run()
        # Every speaker's tables are clean again.
        for router in routers:
            assert ribs_clean(router), router.router_id
        # And the external peer was told the route is gone.
        withdrawn = [
            m
            for m in engine.external_outbox
            if isinstance(m, Withdraw) and m.receiver == "ext-a"
        ]
        assert withdrawn, "withdrawal never reached the external peer"

    def test_withdraw_of_unoriginated_prefix_is_quiet(self):
        engine, routers = build_mesh()
        messages = routers[1].withdraw_origination(PFX)
        assert messages == []
        engine.inject(messages)
        assert engine.run() == 0

    def test_anycast_style_second_origin_survives_first_withdrawal(self):
        engine, routers = build_mesh()
        first, second = routers[0], routers[1]

        engine.inject(first.originate(PFX))
        engine.inject(second.originate(PFX))
        engine.run()
        for router in routers:
            assert router.best(PFX) is not None

        # Withdrawing one origination leaves the other serving everyone.
        engine.inject(first.withdraw_origination(PFX))
        engine.run()
        for router in routers:
            best = router.best(PFX)
            assert best is not None, router.router_id
        assert second.best(PFX) is not None

        # Withdrawing the last origination empties the AS.
        engine.inject(second.withdraw_origination(PFX))
        engine.run()
        for router in routers:
            assert ribs_clean(router), router.router_id

    def test_withdraw_converges_with_no_external_leftovers(self):
        engine, routers = build_mesh(externals=("ext-a", "ext-b"))
        origin = routers[0]
        engine.inject(origin.originate(PFX))
        engine.run()
        engine.inject(origin.withdraw_origination(PFX))
        engine.run()
        assert engine.converged
        # For each external peer the last word about PFX is a withdrawal.
        for ext in ("ext-a", "ext-b"):
            about = [m for m in engine.external_outbox if m.receiver == ext]
            assert about
            assert isinstance(about[-1], Withdraw)
