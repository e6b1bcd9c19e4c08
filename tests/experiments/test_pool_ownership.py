"""A pooled campaign sees the world it is run on.

A worker pool freezes the service when it starts.  The world owns the
pool and is the one place that decides whether it is still good
(:meth:`World.campaign_pool`); the runner refuses a pool that is not
(:class:`StalePoolError`).  The failure these guard against is silent:
a pooled ``campaign.run`` on a world faulted after its first pooled run
returning the healthy world's report.
"""

from __future__ import annotations

import pytest

from repro.experiments import campaign
from repro.experiments.common import build_world
from repro.faults import FaultInjector, LinkDown, PopDown, SessionDown
from repro.scenarios import compose_scenario
from repro.workload import (
    CampaignConfig,
    CampaignWorkerPool,
    ShardedCampaignRunner,
    ShardPlan,
    StalePoolError,
)
from repro.workload.sharded import converged_state
from tests.workload.test_sharded import DiesInWorker

FIELDS = dict(n_users=120, seed=3)


@pytest.fixture(scope="module")
def world():
    """A private world these tests fault (and restore)."""
    world = build_world("small", seed=42)
    yield world
    world.close_pool()


def report(world, workers: int) -> str:
    return campaign.run(world, workers=workers, **FIELDS).report.to_json()


def fault_of(kind: str, world):
    if kind == "link":
        return LinkDown(time_s=0.0, a="SJS", b="HK")
    if kind == "pop":
        return PopDown(time_s=0.0, pop="SIN")
    return SessionDown(time_s=0.0, asn=world.service.deployment.upstreams[0])


@pytest.mark.slow
@pytest.mark.parametrize("kind", ("link", "pop", "session"))
def test_pooled_campaign_follows_faults_and_repairs(world, kind):
    healthy = report(world, workers=1)
    assert report(world, workers=2) == healthy
    healthy_pool = world.campaign_pool()

    injector = FaultInjector(world.service)
    injector.apply(fault_of(kind, world))
    try:
        faulted = report(world, workers=1)
        assert faulted != healthy
        assert report(world, workers=2) == faulted
        assert healthy_pool.closed and world.campaign_pool() is not healthy_pool
    finally:
        injector.restore()
    assert report(world, workers=1) == healthy
    assert report(world, workers=2) == healthy


@pytest.mark.slow
def test_runner_refuses_a_pool_started_before_the_fault(world):
    spec = campaign.campaign_spec(world, "stale", **FIELDS)
    calls = compose_scenario(spec, world).calls
    plan = ShardPlan(n_workers=2)
    pool = world.campaign_pool(workers=2)
    runner = ShardedCampaignRunner(world.service, CampaignConfig(), plan, pool=pool)
    runner.run(calls)  # starts the pool: the healthy world is frozen
    before = converged_state(world.service)
    injector = FaultInjector(world.service)
    injector.apply(PopDown(time_s=0.0, pop="SIN"))
    try:
        assert converged_state(world.service) != before
        with pytest.raises(StalePoolError):
            runner.run(calls)
    finally:
        injector.restore()
    # Restored is not un-faulted as far as a pool can tell.
    with pytest.raises(StalePoolError):
        runner.run(calls)
    assert world.campaign_pool(workers=2) is not pool


@pytest.mark.slow
def test_the_world_replaces_a_pool_a_worker_death_broke(world):
    healthy = report(world, workers=1)
    loaded = compose_scenario(campaign.campaign_spec(world, "campaign", **FIELDS), world)
    pool = world.campaign_pool(workers=2)
    salvaged = ShardedCampaignRunner(
        world.service,
        loaded.config,
        ShardPlan(n_workers=2),
        path_model=DiesInWorker(),
        pool=pool,
    ).run(loaded.calls)
    assert salvaged.report.to_json() == healthy
    assert pool.broken and world.campaign_pool(workers=2) is not pool
    run = campaign.run(world, workers=2, **FIELDS)
    assert run.report.to_json() == healthy
    assert all(not outcome.in_process for outcome in run.shards)


def test_an_unstarted_pool_serves_whatever_it_will_freeze(world):
    world.close_pool()
    pool = world.campaign_pool(workers=2)
    assert not pool.started and pool.serves(world.service)
    injector = FaultInjector(world.service)
    injector.apply(LinkDown(time_s=0.0, a="SJS", b="HK"))
    try:
        assert world.campaign_pool(workers=2) is pool
    finally:
        injector.restore()
        world.close_pool()


def test_a_frozen_service_matches_the_pool_built_from_it(world):
    frozen = world.service.freeze()
    assert converged_state(frozen) is None
    with CampaignWorkerPool(frozen, workers=2) as pool:
        pool.start()  # freezes (workers spawn on first submit: none here)
        assert pool.started and pool.serves(frozen)
        assert not pool.serves(world.service)
