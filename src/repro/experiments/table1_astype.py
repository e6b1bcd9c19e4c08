"""Table 1: average last-mile loss by AS type (Sec. 5.2.3).

From Amsterdam to ASes of each type per region.  The paper's table:

    Region   LTP     STP     CAHP    EC
    AP       0.45%   1.30%   2.80%   1.92%
    EU       0.11%   0.62%   1.58%   0.52%
    NA       0.57%   0.49%   0.46%   0.55%

The orderings (AP: LTP < STP < EC < CAHP; EU: LTP < EC < STP < CAHP; NA
roughly flat) are the reproduced shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.lastmile import LastMileData
from repro.geo.regions import REGION_CODE, WorldRegion
from repro.net.asn import ASType

#: The paper's Table 1, for side-by-side reporting (percent).
PAPER_TABLE1: dict[WorldRegion, dict[ASType, float]] = {
    WorldRegion.ASIA_PACIFIC: {
        ASType.LTP: 0.45,
        ASType.STP: 1.30,
        ASType.CAHP: 2.80,
        ASType.EC: 1.92,
    },
    WorldRegion.EUROPE: {
        ASType.LTP: 0.11,
        ASType.STP: 0.62,
        ASType.CAHP: 1.58,
        ASType.EC: 0.52,
    },
    WorldRegion.NORTH_CENTRAL_AMERICA: {
        ASType.LTP: 0.57,
        ASType.STP: 0.49,
        ASType.CAHP: 0.46,
        ASType.EC: 0.55,
    },
}


@dataclass(slots=True)
class Table1Result:
    """Measured average loss percent per (region, AS type), from Amsterdam."""

    vantage: str
    cells: dict[tuple[WorldRegion, ASType], float] = field(default_factory=dict)

    def loss(self, region: WorldRegion, as_type: ASType) -> float:
        return self.cells.get((region, as_type), 0.0)

    def ordering(self, region: WorldRegion) -> list[ASType]:
        """AS types sorted by measured loss, best (lowest) first."""
        return sorted(ASType, key=lambda as_type: self.loss(region, as_type))

    def spread(self, region: WorldRegion) -> float:
        """max/min ratio across AS types — ~1 means 'blurred' (NA)."""
        values = [self.loss(region, as_type) for as_type in ASType]
        values = [v for v in values if v > 0]
        if not values:
            return 1.0
        return max(values) / min(values)


#: The PoP the table probes from (Amsterdam).
VANTAGE = "AMS"


def run(data: LastMileData) -> Table1Result:
    """Aggregate the campaign's Amsterdam observations into Table 1."""
    result = Table1Result(vantage=VANTAGE)
    for region in PAPER_TABLE1:
        for as_type in ASType:
            result.cells[(region, as_type)] = data.mean_loss_percent(
                pop_code=VANTAGE, dest_region=region, as_type=as_type
            )
    return result


def render(result: Table1Result) -> str:
    """Table 1 with measured vs paper values."""
    lines = [f"Table 1 — average loss % from {result.vantage} (measured | paper)"]
    lines.append("  Region   LTP            STP            CAHP           EC")
    for region, paper_row in PAPER_TABLE1.items():
        cells = "".join(
            f"{result.loss(region, as_type):6.2f}|{paper_row[as_type]:5.2f}  "
            for as_type in (ASType.LTP, ASType.STP, ASType.CAHP, ASType.EC)
        )
        lines.append(f"  {REGION_CODE[region]:<8} {cells}")
    return "\n".join(lines)
