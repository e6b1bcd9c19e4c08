"""RTP stream descriptions.

A thin RTP layer: SSRCs and the 5-second loss-accounting slots (with
their packet capacities) of the streams the measurement client sends.
The per-slot loss counts themselves are the simulated stream's
(:attr:`~repro.dataplane.transmit.StreamResult.slot_losses`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataplane.transmit import slot_count
from repro.media.codec import VideoProfile


@dataclass(frozen=True, slots=True)
class RtpStreamSpec:
    """Static description of one RTP stream."""

    ssrc: int
    profile: VideoProfile
    duration_s: float = 120.0
    slot_s: float = 5.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s!r}")
        if self.slot_s <= 0:
            raise ValueError(f"slot length must be positive, got {self.slot_s!r}")

    @property
    def n_slots(self) -> int:
        """Number of loss-accounting slots (24 for the paper's 2-minute runs).

        Ceiling, not rounding: a non-divisible duration gets a final
        *partial* slot so every second of media is accounted
        (``duration_s=12, slot_s=5`` -> 3 slots of 5 s, 5 s, 2 s).
        """
        return slot_count(self.duration_s, self.slot_s)

    @property
    def packets_per_slot(self) -> int:
        """Capacity of a full slot."""
        return self.profile.packets_in(self.slot_s)

    def slot_duration_s(self, index: int) -> float:
        """Duration of slot ``index``; only the last can be partial.

        Raises
        ------
        IndexError
            For an index outside ``[0, n_slots)``.
        """
        n = self.n_slots
        if not 0 <= index < n:
            raise IndexError(f"slot {index} outside [0, {n})")
        if index < n - 1:
            return self.slot_s
        return self.duration_s - (n - 1) * self.slot_s

    def packets_in_slot(self, index: int) -> int:
        """Capacity of slot ``index`` (smaller for a partial final slot)."""
        return self.profile.packets_in(self.slot_duration_s(index))

    @property
    def total_packets(self) -> int:
        return self.packets_per_slot * (self.n_slots - 1) + self.packets_in_slot(
            self.n_slots - 1
        )


def new_ssrc(rng: np.random.Generator) -> int:
    """A random 32-bit SSRC."""
    return int(rng.integers(0, 2**32))
