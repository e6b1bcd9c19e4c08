"""Figure 3: geo-based routing precision (Sec. 4.1).

Left panel: CDF of ``RTT_geobased − RTT_best`` per prefix, overall and
split by the PoP region the GeoIP database reports the prefix closest to
(EU / NA / AP).  Right panel: scatter of ``(best RTT, geo-based RTT)``,
whose off-diagonal clusters are caused by GeoIP errors.  Also computes
the in-text AS-congruence statistic ("prefixes originating from the same
AS ... are always delay-closer to the same PoP").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.dataplane.transmit import simulate_ping
from repro.experiments.common import World, experiment_rng
from repro.geo.regions import PopRegion
from repro.measurement.ping import PingCampaign
from repro.measurement.stats import fraction_at_most
from repro.net.addressing import Prefix
from repro.vns.pop import nearest_pop, pop_by_code


@dataclass(slots=True)
class PrefixPrecision:
    """One prefix's measurement."""

    prefix: Prefix
    geo_pop: str
    best_pop: str
    rtt_geo_ms: float
    rtt_best_ms: float
    reported_region: PopRegion

    @property
    def rtt_diff_ms(self) -> float:
        return self.rtt_geo_ms - self.rtt_best_ms


@dataclass(slots=True)
class Fig3Result:
    """All series of Fig. 3."""

    records: list[PrefixPrecision] = field(default_factory=list)

    def diffs(self, region: PopRegion | None = None) -> list[float]:
        """RTT differences, optionally restricted to one reported region."""
        return [
            record.rtt_diff_ms
            for record in self.records
            if region is None or record.reported_region is region
        ]

    def fraction_within(self, ms: float, region: PopRegion | None = None) -> float:
        """Fraction of prefixes displaced by at most ``ms`` milliseconds."""
        return fraction_at_most(self.diffs(region), ms)

    def scatter(self) -> list[tuple[float, float]]:
        """(best RTT, geo-based RTT) pairs — the right panel."""
        return [(record.rtt_best_ms, record.rtt_geo_ms) for record in self.records]

    def outliers(self, min_excess_ms: float = 80.0) -> list[PrefixPrecision]:
        """Prefixes badly displaced (the Russian/Indian clusters)."""
        return [
            record for record in self.records if record.rtt_diff_ms > min_excess_ms
        ]


def _reported_region(world: World, prefix: Prefix) -> PopRegion | None:
    """The PoP region whose PoPs the GeoIP DB reports the prefix nearest."""
    location = world.service.geoip.reported_location(prefix)
    if location is None:
        return None
    return nearest_pop(location).region


#: Whose Loc-RIB is read: the geo-chosen egress is a network-wide
#: property, so any entry PoP gives the same answer.
ENTRY_POP = "AMS"

#: Probes go out at noon CET.
PROBE_HOUR_CET = 12.0


def run(world: World, *, max_prefixes: int | None = None) -> Fig3Result:
    """Probe every prefix from every PoP and compare egress choices."""
    rng = experiment_rng(world, salt=3)
    campaign = PingCampaign(world.service, rng)
    prefixes = world.topology.prefixes()
    if max_prefixes is not None:
        prefixes = prefixes[:max_prefixes]
    result = Fig3Result()
    for prefix in prefixes:
        decision = world.service.egress_decision(ENTRY_POP, prefix)
        if decision is None:
            continue
        reported = _reported_region(world, prefix)
        if reported is None:
            continue
        measurement = campaign.probe_prefix(prefix, PROBE_HOUR_CET)
        # The geo-based RTT follows the route VNS actually selected (the
        # egress router's best), not a locally forced probe: Fig. 3 rates
        # the routing decision, not each PoP's probe plumbing.
        via_vns = world.service.path_via_vns(
            decision.egress_pop,
            prefix,
            world.topology.prefix_location[prefix],
        )
        geo_rtt = None
        if via_vns is not None:
            ping = simulate_ping(via_vns, count=5, hour_cet=PROBE_HOUR_CET, rng=rng)
            geo_rtt = ping.min_rtt_ms
        if geo_rtt is None:
            geo_rtt = measurement.rtt_from(decision.egress_pop)
        best_pop = measurement.best_pop
        if geo_rtt is None or best_pop is None:
            continue
        # The VNS-selected route is itself an observation from its PoP;
        # RTT_best is the minimum over everything measured, so the
        # difference is non-negative by construction (as in the paper).
        best_rtt = measurement.rtt_ms_by_pop[best_pop]
        if geo_rtt < best_rtt:
            best_pop, best_rtt = decision.egress_pop, geo_rtt
        result.records.append(
            PrefixPrecision(
                prefix=prefix,
                geo_pop=decision.egress_pop,
                best_pop=best_pop,
                rtt_geo_ms=geo_rtt,
                rtt_best_ms=best_rtt,
                reported_region=reported,
            )
        )
    return result


@dataclass(slots=True)
class CongruenceResult:
    """The Sec. 4.1 AS-congruence statistic."""

    #: Per measured AS: fraction of its prefixes agreeing with the modal
    #: delay-closest PoP.
    per_as_agreement: dict[int, float] = field(default_factory=dict)

    def fraction_of_ases_with_agreement(self, at_least: float) -> float:
        """Fraction of ASes whose prefixes agree at least ``at_least``."""
        if not self.per_as_agreement:
            return 0.0
        values = np.array(list(self.per_as_agreement.values()))
        return float((values >= at_least).mean())


def as_congruence(world: World, result: Fig3Result) -> CongruenceResult:
    """Do prefixes of the same AS share a delay-closest PoP?"""
    best_by_as: dict[int, list[str]] = {}
    for record in result.records:
        origin = world.topology.origin_of.get(record.prefix)
        if origin is None:
            continue
        best_by_as.setdefault(origin, []).append(record.best_pop)
    congruence = CongruenceResult()
    for asn, pops in best_by_as.items():
        if len(pops) < 2:
            continue
        counts = Counter(pops)
        congruence.per_as_agreement[asn] = counts.most_common(1)[0][1] / len(pops)
    return congruence


def render(result: Fig3Result) -> str:
    """The headline rows of Fig. 3 as text."""
    lines = ["Fig 3 — geo-based routing precision (RTT_geo - RTT_best)"]
    lines.append(f"  prefixes measured: {len(result.records)}")
    for label, region in (
        ("EU", PopRegion.EU),
        ("NA", PopRegion.NA),
        ("AP", PopRegion.AP),
        ("All", None),
    ):
        within10 = result.fraction_within(10.0, region)
        within20 = result.fraction_within(20.0, region)
        count = len(result.diffs(region))
        lines.append(
            f"  {label:>3}: n={count:5d}  <=10ms: {within10 * 100:5.1f}%"
            f"  <=20ms: {within20 * 100:5.1f}%"
        )
    outliers = result.outliers()
    lines.append(f"  outliers (>80ms excess): {len(outliers)}")
    return "\n".join(lines)
