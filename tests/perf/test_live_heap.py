"""What a converged control plane keeps alive per (speaker, prefix).

Every object the cyclic collector tracks is walked by each of its
generation-2 passes, and a cold process makes several while it builds a
world.  So bookkeeping the speakers keep per (speaker, prefix) must not
be one tracked object each: the geo reflector's LOCAL_PREF memo is
nested by egress instead of keyed on ``(next_hop, prefix)`` tuples, the
unchanged-outcome skip keeps one dict of iBGP sources beside the Loc-RIB
instead of a ``(best, source)`` pair per prefix, the Loc-RIB is the only
record of a speaker's best routes, and routes with equal communities
share one set.  These are invariants of the layout, not pinned counts.
"""

from __future__ import annotations

import gc

import pytest

from repro.bgp.attributes import Route
from repro.experiments.common import build_world
from repro.net.addressing import Prefix


@pytest.fixture(scope="module")
def routers():
    return list(build_world("small", seed=7).service.network.engine.routers.values())


def reachable(roots) -> list:
    """Every object reachable from ``roots`` through ``gc.get_referents``."""
    seen: set[int] = set()
    found = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if not isinstance(obj, type):  # classes lead to the whole program
            stack.extend(gc.get_referents(obj))
    return found


def pairs(objects, first, second) -> list[tuple]:
    return [
        obj
        for obj in objects
        if type(obj) is tuple
        and len(obj) == 2
        and isinstance(obj[0], first)
        and isinstance(obj[1], second)
    ]


def test_the_walk_reaches_the_bookkeeping(routers):
    objects = reachable(routers)
    kinds = {type(obj).__name__ for obj in objects}
    assert {"Route", "Prefix", "AdjRib", "GeoRouteReflector"} <= kinds
    assert type(routers[0].loc_rib) is dict
    assert any(obj is routers[0].loc_rib for obj in objects)
    assert any(obj is routers[0]._advertised_source for obj in objects)


def test_the_loc_rib_is_the_only_record_of_the_best_routes(routers):
    # A learned best is an Adj-RIB-In route; no prefix-keyed dict but the
    # Loc-RIB maps a prefix to it.  (An originated best is also the
    # speaker's ``originated`` entry: a decision input, not a copy.)
    loc_ribs = {id(router.loc_rib): router.loc_rib for router in routers}
    learned = {
        id(r) for rib in loc_ribs.values() for r in rib.values() if r.learned_from is not None
    }
    assert len(learned) > 1000
    copies = [
        prefix
        for obj in reachable(routers)
        if type(obj) is dict and id(obj) not in loc_ribs
        for prefix, value in obj.items()
        if type(prefix) is Prefix and id(value) in learned
    ]
    assert copies == []


def test_no_next_hop_prefix_keys(routers):
    assert pairs(reachable(routers), str, Prefix) == []


def test_no_best_source_pairs(routers):
    assert pairs(reachable(routers), Route, (Route, type(None))) == []


def test_equal_communities_share_one_set(routers):
    shared: dict[frozenset[str], frozenset[str]] = {}
    routes = 0
    for router in routers:
        for rib in (router.adj_rib_in, router.adj_rib_out):
            for prefix in rib.prefixes():
                for route in rib.routes_for(prefix):
                    routes += 1
                    assert shared.setdefault(route.communities, route.communities) is route.communities
    assert routes > 1000
    assert len(shared) < 10
