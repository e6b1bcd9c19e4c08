"""Oracle for the IGP metric table the speakers decide by.

Each border router decides by one mapping, next hop -> metric, that
``VnsNetwork`` owns and rewrites in place after every IGP change; a
reflector decides by its anchor border router's.  After every step of a
fault timeline that mapping must still be the network's dict and answer
what SPF says: ``inf`` when the router's own PoP is down, the
shortest-path distance (``inf`` when unreachable) to an internal next hop
otherwise, and 0.0 for an external next hop resolved over the local
session, which the mapping does not name.
"""

from repro.faults.events import LinkDown, LinkUp, PopDown, PopUp
from repro.faults.injector import FaultInjector

TIMELINE = (
    LinkDown(time_s=10.0, a="LON", b="ASH"),
    PopDown(time_s=20.0, pop="SJS"),  # the own PoP of SJS-r1 / SJS-r2
    PopUp(time_s=30.0, pop="SJS"),
    LinkUp(time_s=40.0, a="LON", b="ASH"),
)


def spf_metric(network, router_id: str, next_hop: str) -> float:
    if next_hop not in network.pop_of_router:
        return 0.0
    if network.pop_of_router[router_id] in network.down_pops:
        return float("inf")
    return network._router_spf[router_id].distance.get(next_hop, float("inf"))


def test_metric_table_matches_spf_through_a_timeline(fault_world):
    network = fault_world.service.network
    injector = FaultInjector(fault_world.service)
    external = next(
        peer_id
        for router in network.border_routers.values()
        for peer_id, session in router.sessions.items()
        if session.is_ebgp
    )
    next_hops = (*network.pop_of_router, external)
    vantage = {
        **{router_id: router_id for router_id in network.border_routers},
        **network.reflector_anchor,
    }
    assert set(vantage) == set(network.engine.routers)
    seen_inf = set()
    for event in (None, *TIMELINE):
        if event is not None:
            injector.apply(event)
        for speaker_id, router_id in vantage.items():
            metrics = network.engine.router(speaker_id)._igp_metric
            assert metrics is network._igp_table[router_id], (event, speaker_id)
            assert external not in metrics
            for next_hop in next_hops:
                expected = spf_metric(network, router_id, next_hop)
                assert metrics.get(next_hop, 0.0) == expected, (event, speaker_id, next_hop)
                if expected == float("inf") and next_hop in network.border_routers:
                    seen_inf.add(type(event).__name__)
    # The timeline really exercised the own-PoP-down case.
    assert "PopDown" in seen_inf
    assert not network.down_links and not network.down_pops
