"""Figure 12: diurnal patterns in last-mile loss (Sec. 5.2.3).

From San Jose to LTPs/STPs/CAHPs/ECs in AP, EU and NA: the number of
lossy measurement rounds per CET hour of day.  The reproduced shapes:

* loss toward EU/NA destinations peaks during those regions' busy hours;
* loss toward AP peaks with AP's *local* hours regardless of vantage
  ("the network in AP region is congested to a level that masks the
  congestion effect of remote networks").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.lastmile import LastMileData
from repro.geo.regions import (
    LAST_MILE_STUDY_REGIONS,
    REGION_CODE,
    WorldRegion,
    local_hour_to_cet,
)
from repro.net.asn import ASType

#: A destination's local waking hours, 8:00 to 23:00.
LOCAL_BUSY_HOURS = (8.0, 23.0)


@dataclass(slots=True)
class Fig12Result:
    """Lossy-round counts per (AS type, dest region, CET hour)."""

    vantage: str
    series: dict[tuple[ASType, WorldRegion], list[int]] = field(default_factory=dict)

    def hourly(self, as_type: ASType, region: WorldRegion) -> list[int]:
        """The 24-element CET-hour series of one curve."""
        return self.series.get((as_type, region), [0] * 24)

    def peak_hour_cet(self, as_type: ASType, region: WorldRegion) -> int:
        """CET hour with the most lossy rounds."""
        counts = self.hourly(as_type, region)
        return int(np.argmax(counts))

    def peak_to_trough(self, as_type: ASType, region: WorldRegion) -> float:
        """Peak over mean-of-quietest-6-hours: diurnal swing strength."""
        counts = sorted(self.hourly(as_type, region))
        trough = float(np.mean(counts[:6])) if counts else 0.0
        peak = counts[-1] if counts else 0
        if trough == 0.0:
            return float(peak) if peak else 1.0
        return peak / trough

    def peak_within_local_window(self, as_type: ASType, region: WorldRegion) -> bool:
        """Whether the peak falls in the destination's local busy window
        (:data:`LOCAL_BUSY_HOURS`)."""
        peak = self.peak_hour_cet(as_type, region)
        start_cet = local_hour_to_cet(LOCAL_BUSY_HOURS[0], region)
        end_cet = local_hour_to_cet(LOCAL_BUSY_HOURS[1], region)
        if start_cet <= end_cet:
            return start_cet <= peak <= end_cet
        return peak >= start_cet or peak <= end_cet


#: The PoP the figure probes from (San Jose).
VANTAGE = "SJS"


def run(data: LastMileData) -> Fig12Result:
    """Count lossy rounds per (AS type, region, CET hour) from the
    campaign data, in one pass over the observations."""
    series = {
        (as_type, region): [0] * 24
        for as_type in ASType
        for region in LAST_MILE_STUDY_REGIONS
    }
    for observation in data.observations:
        if observation.pop_code != VANTAGE or not observation.had_loss:
            continue
        counts = series.get((observation.host.as_type, observation.host.region))
        hour = int(observation.round.hour_cet)
        if counts is not None and 0 <= hour < 24:
            counts[hour] += 1
    return Fig12Result(vantage=VANTAGE, series=series)


def render(result: Fig12Result) -> str:
    """Fig. 12 as peak hours and swing strengths."""
    lines = [f"Fig 12 — diurnal loss from {result.vantage} (peak CET hour, swing)"]
    lines.append("  type   region  peak@CET  swing   in-local-window")
    for as_type in ASType:
        for region in LAST_MILE_STUDY_REGIONS:
            peak = result.peak_hour_cet(as_type, region)
            swing = result.peak_to_trough(as_type, region)
            within = result.peak_within_local_window(as_type, region)
            lines.append(
                f"  {as_type.value:<6} {REGION_CODE[region]:<7} {peak:8d}"
                f"  {swing:5.1f}  {'yes' if within else 'no':>15}"
            )
    return "\n".join(lines)
