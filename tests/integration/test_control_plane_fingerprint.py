"""The control plane's fingerprint: what a BGP or VNS change must leave equal.

A SMALL world at seed 7 is built and then driven through the 24-event
fault timeline that ``bench_e2e``'s ``fault_churn`` plays (four long-haul
circuits, four PoPs and four upstream sessions, each down then up, the
pairs in a seeded order; the cleared-memo test's copy of it).  Pinned after the build and again after the
timeline:

* the messages delivered and the ``_decide`` work counts
  (``bgp.decide.calls``, ``bgp.decide.unchanged``,
  ``bgp.nht.prefixes_affected``);
* a digest of every speaker's Adj-RIB-In, Adj-RIB-Out and Loc-RIB by
  field value (the AS path as a tuple of ints, communities sorted), so
  it survives a ``repr`` or value-type change — equal after the timeline,
  because every restore is exact;
* the egress digest: ``egress_decision`` for every PoP x prefix.

A change that moves a count on purpose re-pins it and says what moved.
"""

from __future__ import annotations

import hashlib

from repro import perf
from repro.experiments.common import build_world
from repro.faults import FaultInjector
from tests.integration.test_memos_cleared import fault_timeline

RIBS = "a9fe780302700cd47024f910e926c734d0816801518c2f68a0e78adc51f11551"
EGRESS = "6d50f19a52b23243b09ca9a7ec97c0cd27e6cf813e55bb551e60790858557777"
BUILD = (17_744, [9_286, 222, 0])
TIMELINE = (52_879, [55_964, 20_120, 21_559])
COUNTERS = ("bgp.decide.calls", "bgp.decide.unchanged", "bgp.nht.prefixes_affected")


def route_fields(route) -> tuple:
    return (
        str(route.prefix),
        tuple(int(asn) for asn in route.as_path),
        route.next_hop,
        int(route.origin),
        route.med,
        route.local_pref,
        tuple(sorted(route.communities)),
        route.originator_id,
        tuple(route.cluster_list),
        route.learned_from,
        bool(route.ebgp),
    )


def rib_digest(network) -> str:
    digest = hashlib.sha256()
    for rid in sorted(network.engine.routers):
        router = network.engine.routers[rid]
        for name, rib in (("in", router.adj_rib_in), ("out", router.adj_rib_out)):
            for prefix in sorted(rib._routes, key=str):
                for peer in sorted(rib._routes[prefix]):
                    entry = (rid, name, peer, route_fields(rib._routes[prefix][peer]))
                    digest.update(repr(entry).encode())
        for _, route in sorted(router.loc_rib.items(), key=lambda kv: str(kv[0])):
            digest.update(repr((rid, "loc", route_fields(route))).encode())
    return digest.hexdigest()


def egress_digest(service) -> str:
    digest = hashlib.sha256()
    prefixes = sorted(service.topology.prefixes())
    for pop in service.pops():
        for prefix in prefixes:
            digest.update(repr(service.egress_decision(pop.code, prefix)).encode("utf-8"))
    return digest.hexdigest()


def work_counts() -> list[int]:
    counters = perf.snapshot().counters
    return [counters.get(name, 0) for name in COUNTERS]


def test_small_seed7_build_and_fault_timeline():
    was_enabled = perf.is_enabled()
    perf.enable()
    perf.reset()
    try:
        service = build_world("small", seed=7).service
        build = (service.deployment.messages_delivered, work_counts())
        ribs_built, egress_built = rib_digest(service.network), egress_digest(service)
        perf.reset()
        injector = FaultInjector(service)
        delivered = sum(injector.apply(event) for event in fault_timeline(service, 7))
        timeline = (delivered, work_counts())
    finally:
        perf.reset()
        if not was_enabled:
            perf.disable()
    assert build == BUILD
    assert timeline == TIMELINE
    assert ribs_built == RIBS
    assert rib_digest(service.network) == RIBS
    assert egress_built == EGRESS
    assert egress_digest(service) == EGRESS
