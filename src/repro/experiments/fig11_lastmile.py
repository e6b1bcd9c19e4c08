"""Figure 11: last-mile loss and geography (Sec. 5.2.2).

Average loss rate from each of ten PoPs to hosts in AP, EU and NA.  The
paper's observations, which the reproduction asserts as shapes:

* geographic distance raises loss (EU→AP ≫ AP→AP; AP→EU ≫ EU→EU);
* SJS→AP is on par with AP→AP (Asian operators peer at US west coast);
* LON→EU is anomalously high (~2× other EU PoPs) because London's main
  upstream is a US-based Tier-1 — "traffic destined to some of the hosts
  that are actually close to London cross the Atlantic and come back".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.lastmile import LASTMILE_POPS, LastMileData
from repro.geo.regions import LAST_MILE_STUDY_REGIONS, WorldRegion

#: PoPs per probing region, in Fig. 11's x-axis order.
POPS_BY_REGION: dict[str, tuple[str, ...]] = {
    "NA": ("ATL", "ASH", "SJS"),
    "EU": ("AMS", "FRA", "LON", "OSL"),
    "AP": ("HK", "SIN", "SYD"),
}


@dataclass(slots=True)
class Fig11Result:
    """Average loss percent per (probing PoP, destination region)."""

    mean_loss: dict[tuple[str, WorldRegion], float] = field(default_factory=dict)
    data: LastMileData | None = None

    def loss(self, pop_code: str, dest_region: WorldRegion) -> float:
        return self.mean_loss.get((pop_code, dest_region), 0.0)

    def region_average(self, probe_region: str, dest_region: WorldRegion) -> float:
        """Mean over the probing region's PoPs (LON excluded from EU, as
        the paper does when quoting EU→EU ratios)."""
        pops = [p for p in POPS_BY_REGION[probe_region] if p != "LON"]
        values = [self.loss(p, dest_region) for p in pops]
        values = [v for v in values if v > 0.0]
        return sum(values) / len(values) if values else 0.0

    def london_eu_ratio(self) -> float:
        """LON→EU loss over the other EU PoPs' average (paper: > 2)."""
        other = self.region_average("EU", WorldRegion.EUROPE)
        if other == 0.0:
            return 0.0
        return self.loss("LON", WorldRegion.EUROPE) / other


def run(data: LastMileData) -> Fig11Result:
    """Aggregate the campaign's Fig. 11 averages."""
    result = Fig11Result(data=data)
    for pop_code in LASTMILE_POPS:
        for region in LAST_MILE_STUDY_REGIONS:
            result.mean_loss[(pop_code, region)] = data.mean_loss_percent(
                pop_code=pop_code, dest_region=region
            )
    return result


def render(result: Fig11Result) -> str:
    """Fig. 11 as a PoP × destination-region table."""
    lines = ["Fig 11 — average last-mile loss % (rows: probing PoP)"]
    lines.append("  PoP    ->AP     ->EU     ->NA")
    for region_pops in POPS_BY_REGION.values():
        for pop_code in region_pops:
            cells = "".join(
                f"{result.loss(pop_code, region):8.3f}"
                for region in LAST_MILE_STUDY_REGIONS
            )
            lines.append(f"  {pop_code:<5}{cells}")
    lines.append(f"  London EU anomaly ratio: {result.london_eu_ratio():.2f}x")
    return "\n".join(lines)
