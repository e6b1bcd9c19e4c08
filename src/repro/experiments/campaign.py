"""A population-scale call campaign over the built world (Sec. 5 scale).

The Sec. 5 results aggregate a two-week production campaign; this driver
is the synthetic analogue: sample a geo-weighted user population, draw a
day (or more) of diurnally modulated call arrivals, run them, and render
the per-corridor QoE table — delay/loss percentiles, lossy-slot fractions
(Fig. 9's threshold accounting) and VNS-vs-Internet win rates
(Figs. 6/7's dominance view).

The campaign is a bare :class:`~repro.scenarios.spec.ScenarioSpec` — no
faults, no steering, terrestrial last miles — composed and run by
:mod:`repro.scenarios.loader`, the one front door, in the calling
process.  The returned :class:`~repro.workload.engine.CampaignRun`
implements :class:`~repro.experiments.common.ExperimentResult`.
"""

from __future__ import annotations

from repro.experiments.common import World
from repro.scenarios.loader import compose_scenario
from repro.scenarios.spec import ScenarioSpec, WorldSpec
from repro.workload import CampaignRun


def campaign_spec(world: World, name: str, **fields) -> ScenarioSpec:
    """The bare scenario on ``world``'s scale with the given campaign fields."""
    return ScenarioSpec(name=name, world=WorldSpec(scale=world.scale.value), **fields)


def run(
    world: World,
    *,
    n_users: int = 200,
    calls_per_user_day: float = 4.0,
    days: int = 1,
    multiparty_fraction: float = 0.15,
    seed: int = 0,
) -> CampaignRun:
    """Run one seeded campaign over ``world`` as it stands, in this process.

    One integer reproduces the whole campaign
    (:func:`~repro.scenarios.loader.scenario_calls` has the derivation).
    """
    spec = campaign_spec(
        world,
        "campaign",
        seed=seed,
        n_users=n_users,
        calls_per_user_day=calls_per_user_day,
        days=days,
        multiparty_fraction=multiparty_fraction,
    )
    return compose_scenario(spec, world).run()
