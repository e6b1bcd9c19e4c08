"""Probe telemetry: measurement rounds -> a :class:`PathHealthTable`.

The steering loop's sensor: on every round of a
:mod:`repro.measurement.scheduler` schedule, probe a diverse host sample
from the PoPs **both ways a call could travel** —

* forced out of VNS immediately at the PoP (the Sec. 5.2 campaign,
  i.e. the direct Internet transport), and
* across the backbone circuits to the egress nearest the host and out
  (the VNS transport)

— one :class:`~repro.measurement.probes.LossProbeCampaign` per
transport, the same back-to-back round shape on both — then fold each round's minimum RTT and loss fraction into the health
table under the (PoP region -> host region) corridor and the round's
diurnal bucket.  Everything is driven by one seed; the same seed
reproduces the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geo.cities import region_of_point
from repro.measurement.probes import LossProbeCampaign, TargetHost, select_hosts
from repro.measurement.scheduler import Round, rounds_every
from repro.steering.health import PathHealthTable, Transport
from repro.vns.service import VideoNetworkService
from repro.workload.report import REGION_CODE


@dataclass(slots=True)
class TelemetryStats:
    """Accounting for one telemetry collection."""

    rounds: int = 0
    probes: int = 0
    unroutable: int = 0  #: (pop, host) pairs some transport cannot reach


class SteeringTelemetry:
    """Runs the dual-transport probe campaign and feeds a health table.

    Parameters
    ----------
    service:
        The VNS under measurement.
    seed:
        Drives host selection and every probe draw.
    """

    def __init__(self, service: VideoNetworkService, *, seed: int = 0) -> None:
        self.service = service
        self.seed = seed
        self.stats = TelemetryStats()

    # ------------------------------------------------------------------ #

    def collect(
        self,
        *,
        days: int,
        minutes_between_rounds: float,
        hosts_per_type_per_region: int,
    ) -> PathHealthTable:
        """Probe the schedule from every PoP that is up and return the
        filled table (a PoP that is down has no path to probe from).

        The schedule has no defaults here: the one a steered scenario
        uses is ``scenarios.loader.TELEMETRY_*``.
        """
        table = PathHealthTable()
        rng = np.random.default_rng(self.seed)
        hosts = select_hosts(
            self.service, rng, per_type_per_region=hosts_per_type_per_region
        )
        pop_region = {
            pop.code: REGION_CODE[region_of_point(pop.location)]
            for pop in self.service.pops()
            if self.service.network.pop_is_up(pop.code)
        }
        # Both campaigns draw from the one generator, Internet first.
        campaigns = (
            (Transport.INTERNET, LossProbeCampaign(self.service.path_local_exit, rng)),
            (Transport.VNS, LossProbeCampaign(self.service.path_via_vns, rng)),
        )
        for round_ in rounds_every(minutes_between_rounds, days):
            self.stats.rounds += 1
            for pop_code, src_region in pop_region.items():
                for host in hosts:
                    for transport, campaign in campaigns:
                        self._observe(
                            table, campaign, transport, src_region, pop_code, host, round_
                        )
        return table

    def _observe(
        self,
        table: PathHealthTable,
        campaign: LossProbeCampaign,
        transport: Transport,
        src_region: str,
        pop_code: str,
        host: TargetHost,
        round_: Round,
    ) -> None:
        """Probe one (PoP, host) pair one way and fold the round in."""
        observation = campaign.probe(pop_code, host, round_)
        if observation is None:
            self.stats.unroutable += 1
            return
        self.stats.probes += 1
        rtt = observation.min_rtt_ms
        if rtt is None:
            # Every packet lost: fall back to the path's base RTT so
            # the (terrible) loss reading still lands in the table.
            rtt = campaign.path(pop_code, host).rtt_ms()
        table.observe(
            src_region,
            REGION_CODE[host.region],
            transport,
            rtt_ms=rtt,
            loss_fraction=observation.loss_fraction,
            t_hours=round_.absolute_hours,
        )
