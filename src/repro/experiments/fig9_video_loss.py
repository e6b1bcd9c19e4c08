"""Figure 9: video loss CCDFs, VNS vs transit (Sec. 5.1.1).

Per client (Amsterdam / San Jose / Sydney) and destination region (AP /
EU / NA): the CCDF of per-stream loss percentage, with curves for streams
through upstreams (``T-``) and through VNS (``I-``).  The paper draws
reference lines at 0.15% (users start complaining) and 1%.  Also carries
the Sec. 5.1.1 jitter summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import World
from repro.experiments.video import (
    VideoCampaignResult,
    run_video_campaign,
)
from repro.geo.regions import PopRegion
from repro.measurement.stats import Ccdf, fraction_at_most, fraction_exceeding
from repro.media.codec import PROFILE_1080P, PROFILE_720P, VideoProfile

#: The loss level at which "users usually start noticing and complaining".
COMPLAINT_THRESHOLD_PCT = 0.15
#: The paper's second reference line.
SEVERE_THRESHOLD_PCT = 1.0

#: The three clients Fig. 9 plots (the HK client is measured but not shown).
FIGURE_CLIENTS = ("AMS", "SJS", "SYD")


@dataclass(slots=True)
class Fig9Result:
    """Wraps the campaign with the Fig. 9 accessors."""

    campaign: VideoCampaignResult

    def ccdf(
        self, client_pop: str, dest_region: PopRegion, transport: str
    ) -> Ccdf | None:
        """One curve of the figure (``None`` when no sessions matched)."""
        values = self.campaign.loss_values(client_pop, dest_region, transport)
        if not values:
            return None
        return Ccdf.of(values)

    def fraction_over(
        self,
        client_pop: str,
        dest_region: PopRegion,
        transport: str,
    ) -> float:
        """Fraction of streams losing more than :data:`COMPLAINT_THRESHOLD_PCT`."""
        return fraction_exceeding(
            self.campaign.loss_values(client_pop, dest_region, transport),
            COMPLAINT_THRESHOLD_PCT,
        )

    def jitter_fraction_below(self, profile: VideoProfile, ms: float = 10.0) -> float:
        """Fraction of streams with jitter at most ``ms`` (Sec. 5.1.1)."""
        return fraction_at_most(self.campaign.jitter_values(profile), ms)


def run(
    world: World,
    *,
    days: int = 1,
    minutes_between_rounds: float = 120.0,
    include_720p: bool = False,
) -> Fig9Result:
    """Run the streaming campaign and wrap it for Fig. 9 analysis."""
    profiles = (PROFILE_1080P, PROFILE_720P) if include_720p else (PROFILE_1080P,)
    campaign = run_video_campaign(
        world,
        days=days,
        minutes_between_rounds=minutes_between_rounds,
        profiles=profiles,
    )
    return Fig9Result(campaign=campaign)


def render(result: Fig9Result) -> str:
    """The Fig. 9 headline numbers as rows."""
    lines = ["Fig 9 — fraction of 1080p streams above loss thresholds"]
    lines.append("  client  region  transport  >0.15%   >1%      n")
    for client in FIGURE_CLIENTS:
        for region in (PopRegion.AP, PopRegion.EU, PopRegion.NA):
            for transport in ("T", "I"):
                values = result.campaign.loss_values(client, region, transport)
                if not values:
                    continue
                over15 = fraction_exceeding(values, COMPLAINT_THRESHOLD_PCT)
                over1 = fraction_exceeding(values, SEVERE_THRESHOLD_PCT)
                lines.append(
                    f"  {client:<7}{region.value:<8}{transport:<10}"
                    f"{over15 * 100:6.1f}%  {over1 * 100:5.1f}%  {len(values):5d}"
                )
    j1080 = result.jitter_fraction_below(PROFILE_1080P)
    lines.append(f"  jitter <=10ms (1080p): {j1080 * 100:.1f}% of streams")
    if PROFILE_720P in result.campaign.profiles:
        j720 = result.jitter_fraction_below(PROFILE_720P)
        lines.append(f"  jitter <=10ms (720p):  {j720 * 100:.1f}% of streams")
    return "\n".join(lines)
