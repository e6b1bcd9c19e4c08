"""Measurement schedules, expressed as CET hours across simulated days.

The paper's campaigns are periodic: streams "once every half hour" for
two weeks (Sec. 5.1), probes "once every 10 minutes" for three weeks
(Sec. 5.2).  A schedule here is simply the sequence of CET hour-of-day
stamps at which rounds fire; the day index is carried so campaigns can be
scaled down while keeping full diurnal coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Round:
    """One measurement round."""

    day: int
    hour_cet: float

    @property
    def absolute_hours(self) -> float:
        """Hours since campaign start."""
        return self.day * 24.0 + self.hour_cet


def rounds_per_day(minutes: float) -> int:
    """How many rounds of period ``minutes`` fit in one 24 h day.

    Exact for divisible periods (``30 -> 48``); a non-divisible period
    keeps every round that starts strictly inside the day (``100 ->
    15``: rounds at 0, 1:40, ..., 23:20 — ``int(round(...))`` would have
    dropped the 23:20 round, and for other periods invented a round
    beyond the day).
    """
    if minutes <= 0:
        raise ValueError(f"period must be positive, got {minutes!r}")
    ratio = 24 * 60 / minutes
    whole = round(ratio)
    if abs(ratio - whole) < 1e-9:
        return int(whole)
    return math.ceil(ratio)


def rounds_every(minutes: float, days: int) -> list[Round]:
    """Rounds every ``minutes`` across ``days`` full days.

    Each day carries :func:`rounds_per_day` rounds from midnight CET.
    Every round starts inside its day (the last one at
    ``(ceil(1440 / minutes) - 1) * minutes < 1440`` minutes), so
    ``Round.absolute_hours`` is strictly increasing across the schedule.

    Raises
    ------
    ValueError
        For a non-positive period or a negative day count.
    """
    if days < 0:
        raise ValueError(f"days must be non-negative, got {days!r}")
    per_day = rounds_per_day(minutes)
    return [
        Round(day=day, hour_cet=slot * minutes / 60.0)
        for day in range(days)
        for slot in range(per_day)
    ]
