"""Cleared ≡ kept: no memo changes what the program computes.

A memo on a mutable object goes stale silently — nothing fails, the paths
just change.  So one lifecycle is run twice in this process: once as the
program runs it, and once with every memo of the registry
(``MEMOS`` in ``tests/test_public_names_have_callers.py``, the entries
not marked state) cleared at each boundary — after the build, after each
fault event and after the restore; a steering probe campaign's path memo
lives for one telemetry collection, so it is cleared before every probe.
The lifecycle: a SMALL world (seed 7, exact GeoIP; seed 11, the paper's
GeoIP errors), a campaign day and a steered one, a 24-event fault
timeline (long-haul circuits, PoPs and upstream sessions going down and
up, in a seeded order) and the restore.  After every event the egress
digest and a fixed sample of ``call_paths`` views must be equal, and so
must both campaign reports before the faults and after the restore.

:func:`clear_memos` is the one place memos are cleared, by name; the
program has no switch for it.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest

from repro.dataplane import columnar, link
from repro.dataplane.path import path_view
from repro.experiments.common import build_world
from repro.faults import FaultInjector, LinkDown, LinkUp, PopDown, PopUp, SessionDown, SessionUp
from repro.geo import cities
from repro.measurement.probes import LossProbeCampaign
from repro.net import addressing
from repro.steering import SteeringEngine, SteeringTelemetry, make_policy, telemetry
from repro.vns.links import VNS_LONG_HAUL_LINKS
from repro.workload.arrivals import CallArrivalProcess
from repro.workload.engine import CampaignConfig, CampaignEngine
from repro.workload.population import UserPopulation
from tests.test_public_names_have_callers import MEMOS

#: Interning tables: a key's value is its identity (a segment's id, a
#: shared community set), so clearing one would change ids, not answers.
INTERNED = {
    "dataplane.link:SegmentLossTable._canonical",
    "bgp.policy:_tagged",
}
RESOLVER_MEMOS = ("_entry", "_onward", "_pairs", "_local_exit")
CLEARED = {
    "net.asn:AutonomousSystem._nearest",
    "vns.geo_rr:GeoRouteReflector._lp_memo",
    *(f"workload.engine:PathResolver.{name}" for name in RESOLVER_MEMOS),
    "bgp.propagation:AsLevelRouting._tables",
    "vns.builder:VnsDeployment._session_pops",
    "dataplane.columnar:_tables",
    "net.addressing:_render_prefix",
    "geo.cities:nearest_city",
    "dataplane.link:_transit_diurnal",
    "dataplane.link:_access_diurnal",
    "measurement.probes:LossProbeCampaign._path_cache",
}


class ClearedProbeCampaign(LossProbeCampaign):
    """A probe campaign whose path memo is cleared before every probe."""

    def probe(self, pop_code, host, round_):
        self._path_cache.clear()
        return super().probe(pop_code, host, round_)


def clear_memos(service, engines: list[CampaignEngine]) -> None:
    """Clear every memo in :data:`CLEARED` that ``service`` and the
    campaign ``engines`` built on it hold (a probe campaign's is cleared
    by :class:`ClearedProbeCampaign`: it lives for one collection)."""
    for system in service.topology.ases.values():
        system._nearest = None
    for reflector in service.network.reflectors.values():
        reflector._lp_memo.clear()
    for engine in engines:
        for name in RESOLVER_MEMOS:
            getattr(engine.resolver, name).clear()
    service.routing._tables.clear()
    service.deployment._session_pops.clear()
    columnar._tables.clear()
    for cached in (
        addressing._render_prefix,
        cities.nearest_city,
        link._transit_diurnal,
        link._access_diurnal,
    ):
        cached.cache_clear()


def test_the_helper_clears_every_registered_memo():
    memos = {label for label, why in MEMOS.items() if not why.startswith("state:")}
    assert CLEARED | INTERNED == memos
    assert not CLEARED & INTERNED


def fault_timeline(service, seed: int) -> list:
    """Four long-haul circuits, four PoPs and four upstream sessions,
    each down then up, the pairs in a seeded order: 24 events."""
    pairs = [(LinkDown, LinkUp, {"a": a, "b": b}) for a, b in VNS_LONG_HAUL_LINKS[:4]]
    pairs += [(PopDown, PopUp, {"pop": code}) for code in ("SIN", "LON", "ASH", "SYD")]
    pairs += [(SessionDown, SessionUp, {"asn": asn}) for asn in service.deployment.upstreams[:4]]
    events = []
    for slot, index in enumerate(np.random.default_rng(seed).permutation(len(pairs))):
        down, up, fields = pairs[int(index)]
        events.append(down(time_s=2.0 * slot, **fields))
        events.append(up(time_s=2.0 * slot + 1.0, **fields))
    return events


def observe(service, sample) -> tuple[str, list]:
    """The egress digest over every PoP x prefix and the sample's call paths."""
    digest = hashlib.sha256()
    prefixes = sorted(service.topology.prefixes())
    for pop in service.pops():
        for prefix in prefixes:
            digest.update(repr(service.egress_decision(pop.code, prefix)).encode())
    location = service.topology.prefix_location
    views = []
    for src, dst in sample:
        paths = service.call_paths(src, location[src], dst, location[dst])
        views.append(
            None
            if paths is None
            else (
                path_view(paths.via_vns),
                path_view(paths.via_internet),
                paths.entry_pop,
                paths.exit_pop,
            )
        )
    return digest.hexdigest(), views


def lifecycle(seed: int, geoip_errors: bool, cleared: bool) -> list:
    """Everything the lifecycle observes, in order."""
    service = build_world("small", seed=seed, geoip_errors=geoip_errors).service
    population = UserPopulation.sample(service.topology, 120, seed=seed)
    calls = CallArrivalProcess(population, calls_per_user_day=4.0, seed=seed).generate(days=1)
    prefixes = sorted(service.topology.prefixes())
    sample = [(prefixes[i], prefixes[-1 - 3 * i]) for i in range(0, len(prefixes) // 3, 5)]

    engines: list[CampaignEngine] = []

    def campaign() -> str:
        engines.append(CampaignEngine(service, CampaignConfig(seed=seed)))
        return engines[-1].run(calls).report.to_json()

    def steered_campaign() -> str:
        probes = patch.object(telemetry, "LossProbeCampaign", ClearedProbeCampaign)
        with probes if cleared else nullcontext():
            health = SteeringTelemetry(service, seed=seed + 3).collect(
                days=1, minutes_between_rounds=240.0, hosts_per_type_per_region=2
            )
        steering = SteeringEngine(
            health=health, policy=make_policy("threshold_offload"), seed=seed
        )
        engines.append(CampaignEngine(service, CampaignConfig(seed=seed), steering=steering))
        return engines[-1].run(calls).report.to_json()

    def boundary() -> None:
        if cleared:
            clear_memos(service, engines)

    boundary()
    seen = [campaign(), steered_campaign()]
    injector = FaultInjector(service)
    for event in fault_timeline(service, seed):
        injector.apply(event)
        boundary()
        seen.append((event.describe(), observe(service, sample)))
    injector.restore()
    boundary()
    seen.append(observe(service, sample))
    seen.append(campaign())
    seen.append(steered_campaign())
    return seen


@pytest.mark.parametrize(
    "seed, geoip_errors", [(7, False), (11, True)], ids=["seed7", "seed11-geoip-errors"]
)
def test_cleared_memos_change_nothing(seed, geoip_errors):
    kept = lifecycle(seed, geoip_errors, cleared=False)
    cleared = lifecycle(seed, geoip_errors, cleared=True)
    assert len(kept) == 29
    for got, expected in zip(cleared, kept):
        assert got == expected
