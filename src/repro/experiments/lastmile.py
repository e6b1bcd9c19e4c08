"""The Sec. 5.2 last-mile probing campaign, shared by Fig. 11, Table 1
and Fig. 12.

600 real-user hosts (50 per AS type per region in NA, EU and AP) probed
from 10 PoPs with 100 back-to-back ICMP packets every 10 minutes for
three weeks.  Scaled-down runs keep the full PoP × host × hour coverage
and shrink only the sampling density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import World, experiment_rng
from repro.geo.regions import WorldRegion
from repro.measurement.probes import (
    LossProbeCampaign,
    ProbeObservation,
    TargetHost,
    select_hosts,
)
from repro.measurement.scheduler import rounds_every
from repro.net.asn import ASType

#: The ten PoPs of Fig. 11 (TYO was not part of the last-mile study).
LASTMILE_POPS = ("ATL", "ASH", "SJS", "AMS", "FRA", "LON", "OSL", "HK", "SIN", "SYD")

#: Which study region each probing PoP belongs to, for the Fig. 11 grouping.
POP_STUDY_REGION: dict[str, WorldRegion] = {
    "ATL": WorldRegion.NORTH_CENTRAL_AMERICA,
    "ASH": WorldRegion.NORTH_CENTRAL_AMERICA,
    "SJS": WorldRegion.NORTH_CENTRAL_AMERICA,
    "AMS": WorldRegion.EUROPE,
    "FRA": WorldRegion.EUROPE,
    "LON": WorldRegion.EUROPE,
    "OSL": WorldRegion.EUROPE,
    "HK": WorldRegion.ASIA_PACIFIC,
    "SIN": WorldRegion.ASIA_PACIFIC,
    "SYD": WorldRegion.ASIA_PACIFIC,
}


@dataclass(slots=True)
class LastMileData:
    """The campaign's raw observations plus the host sample."""

    hosts: list[TargetHost] = field(default_factory=list)
    observations: list[ProbeObservation] = field(default_factory=list)

    def mean_loss_percent(
        self,
        *,
        pop_code: str | None = None,
        dest_region: WorldRegion | None = None,
        as_type: ASType | None = None,
    ) -> float:
        """Average loss over matching observations (0.0 when none match)."""
        total = 0.0
        count = 0
        for observation in self.observations:
            if pop_code is not None and observation.pop_code != pop_code:
                continue
            if dest_region is not None and observation.host.region is not dest_region:
                continue
            if as_type is not None and observation.host.as_type is not as_type:
                continue
            total += observation.loss_percent
            count += 1
        return total / count if count else 0.0


def run_lastmile_campaign(
    world: World,
    *,
    hosts_per_type_per_region: int = 8,
    days: int = 1,
    minutes_between_rounds: float = 60.0,
    pop_codes: tuple[str, ...] = LASTMILE_POPS,
) -> LastMileData:
    """Run the campaign at a configurable (scaled-down) intensity."""
    rng = experiment_rng(world, salt=11)
    hosts = select_hosts(
        world.service, rng, per_type_per_region=hosts_per_type_per_region
    )
    campaign = LossProbeCampaign(world.service.path_local_exit, rng)
    rounds = rounds_every(minutes_between_rounds, days)
    observations = campaign.run(list(pop_codes), hosts, rounds)
    return LastMileData(hosts=hosts, observations=observations)
