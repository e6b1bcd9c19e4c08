"""What a campaign keeps alive per pair, per path view and per segment.

The campaign sibling of ``test_live_heap.py``.  A full pass of the cyclic
collector walks every tracked object, and it runs when the objects
promoted since the last full pass exceed a quarter of those it left
alive — so a cold campaign must not leave a tracked object behind per
resolved pair, per path view or per segment-keyed memo entry.  A path's
kernel view is a plain tuple of ids and floats (the collector untracks
it), the resolver's pair cache shares its key tuples with the pairs it
holds and stores a failure as a shared sentinel, and the segment
memos are per-id lists, not ``lru_cache`` entries keyed by a segment.
These are invariants of the layout, not pinned counts.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.dataplane.link import PathSegment
from repro.dataplane.path import DataPath
from repro.experiments.common import build_world
from repro.net.asn import AutonomousSystem
from repro.workload.arrivals import CallArrivalProcess
from repro.workload.engine import CampaignConfig, CampaignEngine, _ResolvedPair
from repro.workload.population import UserPopulation


@pytest.fixture(scope="module")
def resolver(small_world):
    population = UserPopulation.sample(small_world.topology, 120, seed=5)
    calls = CallArrivalProcess(population, calls_per_user_day=4.0, seed=5).generate(days=1)
    engine = CampaignEngine(small_world.service, CampaignConfig(seed=5))
    assert engine.run(calls).stats.calls_resolved > 0
    gc.collect()
    return engine.resolver


def reachable(resolver) -> list:
    """Every object reachable from the resolver's caches (not the service)."""
    roots = [value for name, value in vars(resolver).items() if name != "service"]
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


def resolved_pairs(resolver) -> list[_ResolvedPair]:
    return [pair for pair in resolver._pairs.values() if type(pair) is _ResolvedPair]


def lru_cache_keys() -> list:
    """Every key held by any ``functools.lru_cache`` in the process."""
    keys = []
    for wrapper in gc.get_objects():
        if type(wrapper).__name__ == "_lru_cache_wrapper":
            for referent in gc.get_referents(wrapper):
                if type(referent) is dict:
                    keys += referent
    return keys


def test_the_campaign_resolved_pairs(resolver):
    assert len(resolved_pairs(resolver)) > 100


def test_every_path_view_is_untracked(resolver):
    views = [pair.vns_view for pair in resolved_pairs(resolver)]
    views += [pair.internet_view for pair in resolved_pairs(resolver)]
    views += [
        obj._kernel_view
        for obj in reachable(resolver)
        if type(obj) is DataPath and obj._kernel_view is not None
    ]
    assert len(views) > 200
    assert [view for view in views if gc.is_tracked(view)] == []


def test_pair_cache_and_its_pairs_share_their_keys(resolver):
    shared = [key for key, pair in resolver._pairs.items() if type(pair) is _ResolvedPair]
    assert len(shared) > 100
    assert all(resolver._pairs[key].key is key for key in shared)


def test_no_pair_flag_tuples(resolver):
    flagged = [
        obj
        for obj in reachable(resolver)
        if type(obj) is tuple
        and len(obj) == 3
        and isinstance(obj[0], (_ResolvedPair, type(None)))
        and type(obj[1]) is bool
        and type(obj[2]) is bool
    ]
    assert flagged == []


def test_no_segment_keyed_lru_cache(resolver):
    assert not any(
        type(key) is tuple and len(key) == 1 and isinstance(key[0], PathSegment)
        for key in lru_cache_keys()
    )


def test_no_as_target_keyed_lru_cache(resolver):
    assert not any(
        type(key) is tuple and key and isinstance(key[0], AutonomousSystem)
        for key in lru_cache_keys()
    )


def test_a_campaign_leaves_every_as_the_same_bytes():
    """A shipped world's bytes must not depend on what the sending
    process computed: the nearest-presence memos stay out of the pickle."""
    world = build_world("small", seed=7)
    ases = world.topology.ases
    before = {asn: pickle.dumps(system) for asn, system in ases.items()}
    population = UserPopulation.sample(world.topology, 120, seed=5)
    calls = CallArrivalProcess(population, calls_per_user_day=4.0, seed=5).generate(days=1)
    assert CampaignEngine(world.service, CampaignConfig(seed=5)).run(calls).stats.calls_resolved
    assert sum(system._nearest is not None for system in ases.values()) > len(ases) // 2
    assert {asn: pickle.dumps(system) for asn, system in ases.items()} == before


def test_a_campaign_leaves_the_frozen_service_the_same_bytes():
    """What a pool worker is shipped must not depend on what the sending
    process resolved first: the AS-level route tables stay out of the
    pickle, as the nearest-presence memos do."""
    world = build_world("small", seed=7)
    before = pickle.dumps(world.service.freeze())
    population = UserPopulation.sample(world.topology, 900, seed=5)
    calls = CallArrivalProcess(population, calls_per_user_day=4.0, seed=5).generate(days=1)
    assert len(calls) > 3000
    assert CampaignEngine(world.service, CampaignConfig(seed=5)).run(calls).stats.calls_resolved
    assert pickle.dumps(world.service.freeze()) == before
