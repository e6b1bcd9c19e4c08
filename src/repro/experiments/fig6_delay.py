"""Figure 6: delay difference, VNS vs upstreams (Sec. 4.3).

One address per origin AS is probed simultaneously "through VNS and
through its upstreams" from PoPs in Europe, the US and Asia Pacific; the
figure shows the CDF of ``RTT_VNS − RTT_upstream`` per vantage PoP.
Singapore performs best "due to the availability of direct dedicated
links to Australia, USA and Europe".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.dataplane.transmit import simulate_ping
from repro.experiments.common import World, experiment_rng
from repro.measurement.stats import fraction_at_most


@dataclass(slots=True)
class Fig6Result:
    """RTT differences (ms) per vantage PoP."""

    diffs_by_pop: dict[str, list[float]] = field(default_factory=dict)

    def fraction_vns_not_worse(self, pop_code: str) -> float:
        """Fraction of destinations where VNS is at least as fast."""
        return fraction_at_most(self.diffs_by_pop.get(pop_code, []), 0.0)

    def fraction_within(self, pop_code: str, ms: float) -> float:
        """Fraction of destinations stretched by at most ``ms``."""
        return fraction_at_most(self.diffs_by_pop.get(pop_code, []), ms)

    def measured(self, pop_code: str) -> int:
        return len(self.diffs_by_pop.get(pop_code, []))

    def render(self) -> str:
        """Fig. 6 as rows (the uniform-API entry point)."""
        lines = ["Fig 6 — RTT(VNS) - RTT(upstream) per vantage PoP"]
        lines.append("  PoP   n      <=0ms    <=50ms")
        for code, diffs in self.diffs_by_pop.items():
            lines.append(
                f"  {code:<4} {len(diffs):5d}"
                f"  {self.fraction_vns_not_worse(code) * 100:6.1f}%"
                f"  {self.fraction_within(code, 50.0) * 100:6.1f}%"
            )
        return "\n".join(lines)

    def to_row(self) -> dict:
        """Flat scalar summary: per-vantage counts and CDF points."""
        row: dict = {}
        for code in self.diffs_by_pop:
            row[f"{code}.measured"] = self.measured(code)
            row[f"{code}.frac_not_worse"] = self.fraction_vns_not_worse(code)
            row[f"{code}.frac_within_50ms"] = self.fraction_within(code, 50.0)
        return row

    def to_json(self) -> str:
        """Canonical JSON: the per-PoP difference samples plus the row."""
        payload = {"diffs_by_pop": self.diffs_by_pop, "row": self.to_row()}
        return json.dumps(payload, indent=2, sort_keys=True)


#: The three vantage points Fig. 6 plots.
VANTAGES = ("SIN", "AMS", "SJS")

#: Pings per address and transport (the minimum RTT is kept), at noon CET.
PROBES_PER_ADDRESS = 5
PROBE_HOUR_CET = 12.0


def run(world: World) -> Fig6Result:
    """Probe one prefix per origin AS via both transports."""
    rng = experiment_rng(world, salt=6)
    service = world.service
    result = Fig6Result(diffs_by_pop={code: [] for code in VANTAGES})
    for origin in sorted(world.topology.ases):
        system = world.topology.autonomous_system(origin)
        if not system.prefixes:
            continue
        prefix = system.prefixes[0]
        destination = world.topology.prefix_location[prefix]
        for code in VANTAGES:
            via_vns = service.path_via_vns(code, prefix, destination)
            via_upstream = service.path_local_exit(
                code, prefix, destination, upstreams_only=True
            )
            if via_vns is None or via_upstream is None:
                continue
            ping_vns = simulate_ping(
                via_vns, count=PROBES_PER_ADDRESS, hour_cet=PROBE_HOUR_CET, rng=rng
            )
            ping_up = simulate_ping(
                via_upstream, count=PROBES_PER_ADDRESS, hour_cet=PROBE_HOUR_CET, rng=rng
            )
            if ping_vns.min_rtt_ms is None or ping_up.min_rtt_ms is None:
                continue
            result.diffs_by_pop[code].append(
                ping_vns.min_rtt_ms - ping_up.min_rtt_ms
            )
    return result
