"""Back-to-back loss probing of last-mile hosts (Sec. 5.2).

"We probe each selected host by sending ICMP packets from servers in 10
different PoPs [...] once every 10 minutes using 100 packets that are
sent back to back.  Probes are forced to leave VNS immediately at each
PoP."  Observations carry the CET hour so diurnal analyses (Fig. 12) can
bucket them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.dataplane.path import DataPath
from repro.dataplane.transmit import simulate_probe_round
from repro.geo.coords import GeoPoint
from repro.geo.regions import LAST_MILE_STUDY_REGIONS, WorldRegion
from repro.measurement.scheduler import Round
from repro.net.addressing import Prefix
from repro.net.asn import ASType
from repro.vns.service import VideoNetworkService


@dataclass(frozen=True, slots=True)
class TargetHost:
    """One probed end host."""

    prefix: Prefix
    location: GeoPoint
    as_type: ASType
    region: WorldRegion


@dataclass(frozen=True, slots=True)
class ProbeObservation:
    """One probe round from one PoP to one host.

    ``min_rtt_ms`` is the round's lowest echo RTT (what the paper
    records; the steering telemetry feeds it into its health tables) —
    ``None`` when every packet of the round was lost.
    """

    pop_code: str
    host: TargetHost
    round: Round
    sent: int
    lost: int
    min_rtt_ms: float | None = None

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    @property
    def loss_percent(self) -> float:
        return 100.0 * self.loss_fraction

    @property
    def had_loss(self) -> bool:
        return self.lost > 0


#: ``(pop_code, prefix, host location) -> path`` — which way out of the
#: PoP a campaign probes: ``service.path_local_exit`` (forced out of VNS
#: at the PoP, Sec. 5.2) or ``service.path_via_vns`` (across the backbone).
PathBuilder = Callable[[str, Prefix, GeoPoint], "DataPath | None"]

#: Back-to-back packets per probe round (Sec. 5.2).
PACKETS_PER_ROUND = 100


class LossProbeCampaign:
    """Runs the Sec. 5.2 campaign on a set of hosts and PoPs."""

    def __init__(self, path_builder: PathBuilder, rng: np.random.Generator) -> None:
        self.path_builder = path_builder
        self.rng = rng
        self._path_cache: dict[tuple[str, Prefix], DataPath | None] = {}

    def path(self, pop_code: str, host: TargetHost) -> DataPath | None:
        """The probed path from ``pop_code`` to ``host`` (built once)."""
        key = (pop_code, host.prefix)
        if key not in self._path_cache:
            self._path_cache[key] = self.path_builder(
                pop_code, host.prefix, host.location
            )
        return self._path_cache[key]

    def probe(self, pop_code: str, host: TargetHost, round_: Round) -> ProbeObservation | None:
        """One probe round; ``None`` when the PoP has no route to the host."""
        path = self.path(pop_code, host)
        if path is None:
            return None
        result = simulate_probe_round(
            path,
            packets=PACKETS_PER_ROUND,
            hour_cet=round_.hour_cet,
            rng=self.rng,
        )
        return ProbeObservation(
            pop_code=pop_code,
            host=host,
            round=round_,
            sent=result.sent,
            lost=result.lost,
            min_rtt_ms=result.min_rtt_ms,
        )

    def run(
        self,
        pop_codes: list[str],
        hosts: list[TargetHost],
        rounds: list[Round],
    ) -> list[ProbeObservation]:
        """The full campaign: every PoP × host × round."""
        observations: list[ProbeObservation] = []
        for round_ in rounds:
            for pop_code in pop_codes:
                for host in hosts:
                    observation = self.probe(pop_code, host, round_)
                    if observation is not None:
                        observations.append(observation)
        return observations


def select_hosts(
    service: VideoNetworkService,
    rng: np.random.Generator,
    *,
    per_type_per_region: int = 50,
) -> list[TargetHost]:
    """Select the measurement sample of Sec. 5.2.1.

    The paper uses 50 hosts per AS type in each of its three study
    regions (``LAST_MILE_STUDY_REGIONS``; 600 total), chosen to maximise
    AS / country / prefix diversity.  A host's region is where the
    *prefix* lives, not where its AS is headquartered — an LTP homed in
    Europe originates prefixes on every continent.  Buckets sample
    round-robin across distinct origin ASes first, then across each AS's
    prefixes.

    All randomness (the host-location jitter) flows through ``rng``: two
    generators in the same state pick identical hosts.
    """
    from repro.geo.cities import region_of_point

    topology = service.topology
    # Bucket candidate prefixes by (region, AS type), grouped per origin.
    candidates: dict[tuple[WorldRegion, ASType], dict[int, list]] = {}
    for prefix, origin_asn in topology.origin_of.items():
        system = topology.autonomous_system(origin_asn)
        region = region_of_point(topology.prefix_location[prefix])
        if region not in LAST_MILE_STUDY_REGIONS:
            continue
        bucket = candidates.setdefault((region, system.as_type), {})
        bucket.setdefault(origin_asn, []).append(prefix)

    hosts: list[TargetHost] = []
    for region in LAST_MILE_STUDY_REGIONS:
        for as_type in ASType:
            per_as = candidates.get((region, as_type))
            if not per_as:
                continue
            asns = sorted(per_as)
            picked: list[TargetHost] = []
            index = 0
            budget = per_type_per_region * max(4, len(asns))
            while len(picked) < per_type_per_region and index < budget:
                asn = asns[index % len(asns)]
                prefix_list = per_as[asn]
                depth = index // len(asns)
                index += 1
                if depth >= len(prefix_list):
                    continue
                prefix = prefix_list[depth]
                picked.append(
                    TargetHost(
                        prefix=prefix,
                        location=topology.host_location(prefix, rng),
                        as_type=as_type,
                        region=region,
                    )
                )
            hosts.extend(picked)
    return hosts
