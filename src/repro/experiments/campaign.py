"""A population-scale call campaign over the built world (Sec. 5 scale).

The Sec. 5 results aggregate a two-week production campaign; this driver
is the synthetic analogue: sample a geo-weighted user population, draw a
day (or more) of diurnally modulated call arrivals, run them through
:class:`~repro.workload.sharded.ShardedCampaignRunner`, and render the
per-corridor QoE table — delay/loss percentiles, lossy-slot fractions
(Fig. 9's threshold accounting) and VNS-vs-Internet win rates
(Figs. 6/7's dominance view).

The returned :class:`~repro.workload.engine.CampaignRun` implements
:class:`~repro.experiments.common.ExperimentResult`.  ``workers`` only
picks where the runner's shards execute (this process, or the world's
persistent pool); the report is byte-identical either way.
"""

from __future__ import annotations

from repro.experiments.common import World
from repro.workload import (
    CallArrivalProcess,
    CallSpec,
    CampaignConfig,
    CampaignRun,
    ShardedCampaignRunner,
    ShardPlan,
    UserPopulation,
)


def seeded_calls(
    world: World,
    n_users: int,
    calls_per_user_day: float,
    days: int,
    multiparty_fraction: float,
    seed: int,
) -> tuple[list[CallSpec], CampaignConfig]:
    """One integer → the whole campaign: its call list and engine config.

    The population is sampled with ``seed``, the arrivals drawn with
    ``seed + 1`` and the engine's simulation draws keyed by ``seed + 2``
    — the derivation every seeded campaign experiment shares.
    """
    population = UserPopulation.sample(world.topology, n_users, seed=seed)
    arrivals = CallArrivalProcess(
        population,
        calls_per_user_day=calls_per_user_day,
        multiparty_fraction=multiparty_fraction,
        seed=seed + 1,
    )
    return arrivals.generate(days=days), CampaignConfig(seed=seed + 2)


def run(
    world: World,
    *,
    n_users: int = 200,
    calls_per_user_day: float = 4.0,
    days: int = 1,
    multiparty_fraction: float = 0.15,
    seed: int = 0,
    workers: int = 1,
    shard_plan: ShardPlan | None = None,
) -> CampaignRun:
    """Run one seeded campaign over ``world``.

    The population, arrival and engine seeds are derived from ``seed``
    (:func:`seeded_calls`), so one integer reproduces the whole campaign.
    With one worker the runner executes in this process (one shard
    unless ``shard_plan`` cuts more); ``workers > 1`` (or a
    ``shard_plan`` sized for more) runs the same calls on ``world``'s
    persistent :meth:`~repro.experiments.common.World.campaign_pool` —
    byte-identical report, and repeated invocations over one world
    reuse the already-spawned, already-warm workers.
    """
    calls, config = seeded_calls(
        world, n_users, calls_per_user_day, days, multiparty_fraction, seed
    )
    if shard_plan is None:
        shard_plan = ShardPlan(n_workers=workers)
    pool = None
    if shard_plan.effective_workers > 1:
        pool = world.campaign_pool(workers=shard_plan.effective_workers)
    return ShardedCampaignRunner(world.service, config, shard_plan, pool=pool).run(
        calls
    )


def render(campaign: CampaignRun) -> str:
    """The campaign summary as rows (one per directed region pair)."""
    return campaign.render()
