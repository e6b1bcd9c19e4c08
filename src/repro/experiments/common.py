"""Shared world construction for all experiments.

A *world* is a synthetic Internet plus a converged VNS deployment — and,
when an experiment needs the "before geo-routing" comparison, a second
deployment with plain hot-potato routing built on the *same* Internet.
Three scales trade fidelity for runtime; every experiment accepts any
scale and reports the same shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.bgp.propagation import AsLevelRouting
from repro.geo.errors import (
    CountryCentroidError,
    GeoIPErrorModel,
    RandomNoiseError,
    StaleWhoisError,
)
from repro.net.topology import TopologyConfig
from repro.perf import counters as perf
from repro.vns.builder import VnsConfig
from repro.vns.service import VideoNetworkService


class WorldScale(enum.Enum):
    """How big a synthetic Internet to build."""

    SMALL = "small"  #: unit-test scale (~60 ASes)
    MEDIUM = "medium"  #: benchmark scale (~250 ASes)
    LARGE = "large"  #: closest to the paper's environment (~700 ASes)

    def __str__(self) -> str:
        return self.value


_TOPOLOGY_CONFIGS: dict[WorldScale, TopologyConfig] = {
    WorldScale.SMALL: TopologyConfig(n_ltp=4, n_stp=10, n_cahp=16, n_ec=24),
    WorldScale.MEDIUM: TopologyConfig(n_ltp=8, n_stp=32, n_cahp=70, n_ec=120),
    WorldScale.LARGE: TopologyConfig(n_ltp=10, n_stp=80, n_cahp=240, n_ec=380),
}

_MAX_PEERS: dict[WorldScale, int] = {
    WorldScale.SMALL: 8,
    WorldScale.MEDIUM: 24,
    WorldScale.LARGE: 40,
}


def paper_geoip_errors() -> list[GeoIPErrorModel]:
    """The database pathologies Sec. 4.1 diagnosed.

    Russian prefixes collapse onto a Siberian centroid (making them look
    closer to Asian PoPs than to European ones); Indian prefixes carry
    stale Canadian WHOIS records from an acquired ISP; plus the generic
    long-tailed displacement commercial databases exhibit.
    """
    return [
        CountryCentroidError("RU"),
        StaleWhoisError(true_country="IN", stale_country="CA"),
        RandomNoiseError(mean_km=35.0, fraction=0.6),
    ]


@dataclass(slots=True)
class World:
    """A built world: one Internet, one or two VNS deployments."""

    scale: WorldScale
    seed: int
    service: VideoNetworkService
    before: VideoNetworkService | None = None
    rng: np.random.Generator | None = None

    @property
    def topology(self):
        return self.service.topology

    @property
    def routing(self) -> AsLevelRouting:
        return self.service.routing

    def require_before(self) -> VideoNetworkService:
        """The hot-potato deployment, building it lazily if needed."""
        if self.before is None:
            self.before = VideoNetworkService.build(
                vns_config=VnsConfig(
                    max_peers=_MAX_PEERS[self.scale], geo_routing=False
                ),
                seed=self.seed,
                topology=self.service.topology,
                routing=self.service.routing,
            )
        return self.before


def build_world(
    scale: WorldScale | str = WorldScale.SMALL,
    *,
    seed: int = 42,
    with_before: bool = False,
    geoip_errors: bool = False,
) -> World:
    """Build a world at the requested scale.

    ``geoip_errors`` injects the paper's database pathologies (needed by
    the Fig. 3 outlier analysis); without it the GeoIP database is exact.
    """
    if isinstance(scale, str):
        scale = WorldScale(scale)
    errors = paper_geoip_errors() if geoip_errors else None
    with perf.timer(f"experiments.build_world.{scale.value}"):
        service = VideoNetworkService.build(
            _TOPOLOGY_CONFIGS[scale],
            VnsConfig(max_peers=_MAX_PEERS[scale]),
            seed=seed,
            geoip_errors=errors,
        )
    world = World(
        scale=scale,
        seed=seed,
        service=service,
        rng=np.random.default_rng(seed + 1),
    )
    if with_before:
        world.require_before()
    return world


def experiment_rng(world: World, salt: int) -> np.random.Generator:
    """A dedicated generator per experiment so runs stay independent."""
    return np.random.default_rng(world.seed * 1_000_003 + salt)


# --------------------------------------------------------------------- #
# the shape every experiment result shares
# --------------------------------------------------------------------- #


@runtime_checkable
class ExperimentResult(Protocol):
    """What ``run`` returns in campaign, steering, failover and Fig. 6:
    render, row, JSON.

    Structurally typed — a result participates by growing the three
    methods, no inheritance required.  Those result classes
    (:class:`~repro.workload.engine.CampaignRun`,
    :class:`~repro.experiments.steering.SteeringComparison`,
    :class:`~repro.experiments.failover.FailoverResult`,
    :class:`~repro.experiments.fig6_delay.Fig6Result`) keep their
    figure-specific accessors; these are the shapes shared drivers rely
    on: ``render()`` for ``examples/paper_report.py``, ``to_row()`` /
    ``to_json()`` for :func:`repro.results.record_experiment` (the row
    becomes store metrics, the JSON the archived payload).  The other
    figure modules return plain series and render them with their
    module's ``render(result)``.
    """

    def render(self) -> str:
        """The experiment's rows as text (what the paper's figure shows)."""
        ...

    def to_row(self) -> dict:
        """Flat scalar summary — dotted names to int/float values.

        What the results store ingests as this experiment's metrics;
        every value must be seed-deterministic (no wall-clock figures).
        """
        ...

    def to_json(self) -> str:
        """Canonical JSON (sorted keys): the archivable payload."""
        ...
