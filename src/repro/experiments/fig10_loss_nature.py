"""Figure 10: the nature of loss (Sec. 5.1.2).

Loss percentage vs the number of lossy five-second slots (of 24), from
the Amsterdam client over all six echo servers: through upstreams (top)
and through VNS (bottom).  Three populations appear on the transit side —
a linear random-loss baseline, short-burst outliers (top-left: large loss
in few slots) and long-burst outliers (top-right: large loss throughout)
— and "VNS infrastructure eliminates small loss that spans multiple
slots as well as bursty outliers".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.common import World
from repro.experiments.video import VideoCampaignResult, run_video_campaign
from repro.media.codec import PROFILE_1080P

#: The paper's horizontal reference line.
LARGE_LOSS_PCT = 0.15


class LossClass(enum.Enum):
    """Which Fig. 10 population a session belongs to."""

    NO_LOSS = "no-loss"
    RANDOM_BASELINE = "random"  #: small loss spread across slots
    SHORT_BURST = "short-burst"  #: large loss, few slots (upper left)
    LONG_BURST = "long-burst"  #: large loss, many slots (upper right)

    def __str__(self) -> str:
        return self.value


#: Slots in one of the paper's sessions (120 s in 5 s slots).
SESSION_SLOTS = 24

#: A session whose loss spans at least this many slots is multi-slot loss.
MULTI_SLOT_MIN = 4

#: The Amsterdam client the figure plots.
CLIENT_POP = "AMS"


def classify(loss_percent: float, lossy_slots: int) -> LossClass:
    """Map one :data:`SESSION_SLOTS`-slot session onto a Fig. 10 population."""
    return list(LossClass)[int(_class_codes(loss_percent, lossy_slots, SESSION_SLOTS))]


def _class_codes(loss_percent, lossy_slots, n_slots) -> np.ndarray:
    """:func:`classify` over columns: each session's index into ``LossClass``."""
    return np.select(
        [
            lossy_slots == 0,
            loss_percent < LARGE_LOSS_PCT,
            lossy_slots <= np.maximum(3, n_slots // 8),
            lossy_slots >= np.floor(0.75 * n_slots),
        ],
        [0, 1, 2, 3],
        default=1,
    )


@dataclass(slots=True)
class Fig10Result:
    """Scatter points and population counts per transport."""

    points: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    counts: dict[str, dict[LossClass, int]] = field(default_factory=dict)

    def scatter(self, transport: str) -> list[tuple[int, float]]:
        """(lossy slots, loss %) pairs for one panel."""
        return self.points.get(transport, [])

    def count(self, transport: str, loss_class: LossClass) -> int:
        return self.counts.get(transport, {}).get(loss_class, 0)

    def sessions(self, transport: str) -> int:
        return sum(self.counts.get(transport, {}).values())

    def multi_slot_loss_fraction(self, transport: str) -> float:
        """Fraction of sessions whose loss spans :data:`MULTI_SLOT_MIN` slots
        or more."""
        pts = self.points.get(transport, [])
        if not pts:
            return 0.0
        return sum(1 for slots, _ in pts if slots >= MULTI_SLOT_MIN) / len(pts)


def analyze(campaign: VideoCampaignResult) -> Fig10Result:
    """Build the Fig. 10 panels from an existing campaign run."""
    result = Fig10Result()
    for transport in ("T", "I"):
        rows = campaign.mask(client_pop=CLIENT_POP, transport=transport, profile=PROFILE_1080P)
        slots, loss = campaign.lossy_slots[rows], campaign.loss_percent[rows]
        codes = _class_codes(loss, slots, campaign.n_slots[rows])
        result.points[transport] = list(zip(slots.tolist(), loss.tolist()))
        result.counts[transport] = dict(
            zip(LossClass, np.bincount(codes, minlength=len(LossClass)).tolist())
        )
    return result


def run(world: World, *, days: int = 1, minutes_between_rounds: float = 60.0) -> Fig10Result:
    """Run a campaign for the Amsterdam client and analyse loss nature."""
    campaign = run_video_campaign(
        world,
        days=days,
        minutes_between_rounds=minutes_between_rounds,
        client_pops=(CLIENT_POP,),
    )
    return analyze(campaign)


def render(result: Fig10Result) -> str:
    """Fig. 10 as population counts."""
    lines = ["Fig 10 — loss nature (Amsterdam, 1080p, all echo servers)"]
    lines.append("  transport  sessions  no-loss  random  short-burst  long-burst")
    for transport, label in (("T", "upstreams"), ("I", "VNS")):
        lines.append(
            f"  {label:<10}{result.sessions(transport):8d}"
            f"  {result.count(transport, LossClass.NO_LOSS):7d}"
            f"  {result.count(transport, LossClass.RANDOM_BASELINE):6d}"
            f"  {result.count(transport, LossClass.SHORT_BURST):11d}"
            f"  {result.count(transport, LossClass.LONG_BURST):10d}"
        )
    lines.append(
        "  multi-slot loss fraction: "
        f"T {result.multi_slot_loss_fraction('T') * 100:.1f}% / "
        f"I {result.multi_slot_loss_fraction('I') * 100:.1f}%"
    )
    return "\n".join(lines)
