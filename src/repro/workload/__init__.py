"""Population-scale call campaigns with batched QoE aggregation.

The paper's results come from a two-week production measurement campaign
(Sec. 5): real users placing real calls, aggregated per corridor.  This
subpackage is that campaign's synthetic counterpart:

* :mod:`~repro.workload.population` — a geo-weighted user base sampled
  from the topology's prefixes;
* :mod:`~repro.workload.arrivals` — diurnally modulated Poisson call
  arrivals with Zipf callee popularity;
* :mod:`~repro.workload.engine` — the cached/batched campaign runner
  every front door runs in its own process;
* :mod:`~repro.workload.sharded` — shard-and-reduce over a persistent
  worker pool, or the same slices in-process — byte-identical to the
  bare engine either way (the benchmarks drive it);
* :mod:`~repro.workload.report` — per-region-pair QoE aggregation with a
  byte-stable JSON report.
"""

from repro.dataplane.transmit import LOSSY_SLOT_THRESHOLD
from repro.workload.arrivals import (
    CALLEE_ZIPF_EXPONENT,
    DURATION_CHOICES_S,
    DURATION_WEIGHTS,
    CallArrivalProcess,
    CallSpec,
    call_rate_profile,
    flash_crowd_calls,
)
from repro.workload.engine import (
    CallResult,
    CallResults,
    CampaignConfig,
    CampaignEngine,
    CampaignRun,
    CampaignStats,
    PathModel,
    PathResolver,
    group_key,
)
from repro.workload.population import (
    DEFAULT_REGION_WEIGHTS,
    User,
    UserPopulation,
)
from repro.workload.report import (
    REGION_CODE,
    CampaignAggregator,
    CampaignReport,
    PairAccumulator,
)
from repro.workload.sharded import (
    CampaignWorkerPool,
    PoolStats,
    ShardedCampaignRun,
    ShardedCampaignRunner,
    ShardExecutionError,
    ShardOutcome,
    ShardPlan,
    ShardTask,
    StalePoolError,
    partition_calls,
    predicted_shard_cost,
    warmup_manifest,
)

__all__ = [
    "CALLEE_ZIPF_EXPONENT",
    "DURATION_CHOICES_S",
    "DURATION_WEIGHTS",
    "DEFAULT_REGION_WEIGHTS",
    "LOSSY_SLOT_THRESHOLD",
    "REGION_CODE",
    "CallArrivalProcess",
    "CallResult",
    "CallResults",
    "CallSpec",
    "CampaignAggregator",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignReport",
    "CampaignRun",
    "CampaignStats",
    "CampaignWorkerPool",
    "PairAccumulator",
    "PathModel",
    "PathResolver",
    "PoolStats",
    "ShardExecutionError",
    "ShardOutcome",
    "ShardPlan",
    "ShardTask",
    "ShardedCampaignRun",
    "ShardedCampaignRunner",
    "StalePoolError",
    "User",
    "UserPopulation",
    "call_rate_profile",
    "flash_crowd_calls",
    "group_key",
    "partition_calls",
    "predicted_shard_cost",
    "warmup_manifest",
]

