"""ICMP ping campaigns from VNS PoPs.

Section 4.1: "We probe the first IP address in each destination prefix in
the routing table from all PoPs.  A probe consists of 5 ICMP ping
packets, and we record the lowest observed round-trip time.  The probing
packets are forced out of VNS immediately at each PoP."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataplane.transmit import simulate_ping
from repro.net.addressing import Prefix
from repro.vns.pop import POPS
from repro.vns.service import VideoNetworkService


@dataclass(slots=True)
class PopRttMeasurement:
    """Min-RTTs to one prefix from every PoP that reached it."""

    prefix: Prefix
    rtt_ms_by_pop: dict[str, float] = field(default_factory=dict)

    @property
    def best_pop(self) -> str | None:
        """The PoP with the lowest measured RTT (network-proximity winner)."""
        if not self.rtt_ms_by_pop:
            return None
        return min(self.rtt_ms_by_pop, key=lambda code: self.rtt_ms_by_pop[code])

    def rtt_from(self, pop_code: str) -> float | None:
        return self.rtt_ms_by_pop.get(pop_code)


#: Pings per probe; the minimum RTT is kept.
PACKETS_PER_PROBE = 5


class PingCampaign:
    """Probes prefixes from every PoP, locally forced out."""

    def __init__(self, service: VideoNetworkService, rng: np.random.Generator) -> None:
        self.service = service
        self.rng = rng

    def probe_prefix(self, prefix: Prefix, hour_cet: float = 12.0) -> PopRttMeasurement:
        """Probe one prefix's first host address from every campaign PoP."""
        result = PopRttMeasurement(prefix=prefix)
        destination = self.service.topology.prefix_location[prefix]
        for code in (pop.code for pop in POPS):
            path = self.service.path_local_exit(code, prefix, destination)
            if path is None:
                continue
            ping = simulate_ping(
                path, count=PACKETS_PER_PROBE, hour_cet=hour_cet, rng=self.rng
            )
            if ping.min_rtt_ms is not None:
                result.rtt_ms_by_pop[code] = ping.min_rtt_ms
        return result
