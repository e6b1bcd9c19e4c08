"""Experiment harness: one module per paper figure/table.

Every module exposes a ``run(...)`` returning a structured result object
holding exactly the series the corresponding figure plots.
``repro.experiments.common`` builds the shared simulation world at
``small`` (tests), ``medium`` (benchmarks) or ``large`` scale.

Call a module's ``run(world, ...)`` directly; Fig. 11, Table 1 and
Fig. 12 take the shared last-mile campaign instead
(``run(run_lastmile_campaign(world, ...))``).  The campaign-style results
(campaign, steering, failover, fig6) implement
:class:`~repro.experiments.common.ExperimentResult` — ``render()`` /
``to_row()`` / ``to_json()``, the shape
:func:`repro.results.record_experiment` ingests; every other module
renders its result with its own ``render(result)``.

Experiment index (see DESIGN.md for the full mapping):

========  =====================================================
fig3      Geo-based routing precision (CDF + scatter, Sec. 4.1)
fig4      Egress PoP selection before/after (Sec. 4.2.1)
fig5      Neighbour/transit selection before/after (Sec. 4.2.2)
fig6      Delay difference VNS vs upstreams (Sec. 4.3)
fig7      Incoming anycast traffic by region (Sec. 4.4)
fig9      Video loss CCDFs, VNS vs transit (Sec. 5.1.1)
fig10     Loss nature: loss vs lossy slots (Sec. 5.1.2)
fig11     Last-mile loss and geography (Sec. 5.2.2)
table1    Last-mile loss by AS type (Sec. 5.2.3)
fig12     Diurnal loss patterns (Sec. 5.2.3)
failover  Fault injection / failover suite (beyond the paper)
campaign  Population-scale call campaign (Sec. 5 at scale)
steering  Hybrid VNS/Internet steering policies (beyond the paper)
========  =====================================================
"""

from repro.experiments.common import (
    ExperimentResult,
    World,
    WorldScale,
    build_world,
)

__all__ = [
    "ExperimentResult",
    "World",
    "WorldScale",
    "build_world",
]
