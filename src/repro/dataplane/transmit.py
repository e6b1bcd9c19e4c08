"""Transmission simulation over a :class:`~repro.dataplane.path.DataPath`.

Two granularities:

* :func:`simulate_stream` — slot-aggregated media-stream simulation: each
  segment contributes a per-slot loss-rate vector; slot losses are
  binomially drawn from the combined rate.  This reproduces the
  two-minute / 24×5-second-slot accounting of Sec. 5.1.2 at a tiny
  fraction of per-packet cost.
* :func:`simulate_ping` / :func:`simulate_probe_round` — ICMP-style
  probing for the routing-precision (Sec. 4) and last-mile (Sec. 5.2)
  experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dataplane import calibration as cal
from repro.dataplane.link import PathSegment, SegmentKind
from repro.dataplane.path import DataPath, path_view


#: A slot is "lossy" for QoE accounting when it loses at least this
#: fraction of the packets it carried (the campaign-scale analogue of the
#: Fig. 9 slot accounting).
LOSSY_SLOT_THRESHOLD = 0.02

#: Loss-accounting slot length (s) of every stream.
SLOT_S = 5.0


@dataclass(slots=True)
class StreamResult:
    """Outcome of one simulated media stream.

    Attributes
    ----------
    packets_sent:
        Total packets in the stream.
    slot_losses:
        Lost-packet count per 5-second slot.
    jitter_p95_ms:
        95th-percentile interarrival jitter over the stream.
    rtt_ms:
        Path round-trip time (constant per stream in this model).
    packets_lost, heavy_loss_slots:
        Reductions of ``slot_losses``: the total, and the number of slots
        that lost at least :data:`LOSSY_SLOT_THRESHOLD` of the packets
        they carried (:func:`count_heavy_loss_slots`).  The simulators pass
        them in — they know what each slot carried, and the columnar
        kernel reduces whole passes at once; left out, every slot is
        taken to have carried an even share of ``packets_sent``.
    """

    packets_sent: int
    slot_losses: np.ndarray
    jitter_p95_ms: float
    rtt_ms: float
    packets_lost: int | None = None
    heavy_loss_slots: int | None = None

    def __post_init__(self) -> None:
        if self.packets_lost is None:
            self.packets_lost = int(np.sum(self.slot_losses))
        if self.heavy_loss_slots is None:
            n_slots = len(self.slot_losses)
            even_share = self.packets_sent / n_slots if n_slots else 0
            self.heavy_loss_slots = int(
                even_share and count_heavy_loss_slots(self.slot_losses, even_share)
            )

    @property
    def loss_percent(self) -> float:
        """Loss as a percentage of packets sent."""
        if self.packets_sent == 0:
            return 0.0
        return 100.0 * self.packets_lost / self.packets_sent

    @property
    def lossy_slots(self) -> int:
        """Number of 5-second slots with at least one lost packet."""
        return int((self.slot_losses > 0).sum())

    @property
    def n_slots(self) -> int:
        return len(self.slot_losses)


def count_heavy_loss_slots(slot_losses, slot_packets):
    """Slots (last axis) losing >= :data:`LOSSY_SLOT_THRESHOLD` of their packets.

    ``slot_packets`` is what each slot carried, broadcast against
    ``slot_losses``: one vector for a stream, one row per stream for a
    kernel pass.
    """
    return (np.asarray(slot_losses) / slot_packets >= LOSSY_SLOT_THRESHOLD).sum(axis=-1)


def slot_count(duration_s: float, slot_s: float) -> int:
    """Number of accounting slots covering ``duration_s`` entirely.

    Ceiling division with a tolerance for float ratios that are integral
    up to rounding (``120 / 5 -> 24``): a non-divisible duration gets a
    final *partial* slot instead of silently dropping its tail
    (``12 / 5 -> 3``, not 2).
    """
    ratio = duration_s / slot_s
    whole = round(ratio)
    if whole > 0 and abs(ratio - whole) < 1e-9:
        return int(whole)
    return max(1, math.ceil(ratio))


def combine_rates(per_segment: list[np.ndarray], n_slots: int | None = None) -> np.ndarray:
    """Combine independent per-segment loss rates into end-to-end rates.

    ``1 - prod(1 - r_i)`` per slot — a packet survives only if every
    segment passes it.  An empty segment list (a zero-length path, e.g.
    client and echo server at the same PoP) combines to all-zero rates,
    which is why ``n_slots`` can be supplied.
    """
    if not per_segment:
        return np.zeros(n_slots or 0)
    survival = np.ones_like(per_segment[0])
    for rates in per_segment:
        survival = survival * (1.0 - rates)
    return 1.0 - survival


def _jitter_rate_factor(pps: float) -> float:
    """The packet-rate jitter factor: jitter scales as ``1/sqrt(rate)``."""
    return float(np.sqrt(cal.JITTER_REFERENCE_PPS / max(pps, 1.0)))


def _stream_shape(
    duration_s: float, packets_per_second: float, slot_s: float
) -> tuple[int, int, int]:
    """``(n_slots, packets_per_slot, final_packets)`` of a stream.

    Guards degenerate shapes: a sub-packet-rate stream whose
    ``packets_per_slot`` rounds to zero would report loss-free slots it
    never carried a packet over (corrupting lossy-slot fractions), so it
    is rejected; a partial final slot is clamped to carry at least one
    packet for the same reason.
    """
    n_slots = slot_count(duration_s, slot_s)
    packets_per_slot = int(round(packets_per_second * slot_s))
    if packets_per_slot < 1:
        raise ValueError(
            "packets_per_second * slot_s rounds to zero packets per slot "
            f"(packets_per_second={packets_per_second!r}, slot_s={slot_s!r}); "
            "sub-packet-rate streams cannot be slot-accounted"
        )
    final_slot_s = duration_s - (n_slots - 1) * slot_s
    final_packets = max(1, int(round(packets_per_second * final_slot_s)))
    return n_slots, packets_per_slot, final_packets


def simulate_stream(
    path: DataPath,
    *,
    duration_s: float = 120.0,
    packets_per_second: float = 420.0,
    slot_s: float = SLOT_S,
    hour_cet: float = 12.0,
    rng: np.random.Generator,
) -> StreamResult:
    """Simulate one media stream over ``path``.

    Raises
    ------
    ValueError
        For non-positive duration, packet rate, or slot length, and for
        sub-packet-rate streams (``packets_per_second * slot_s`` rounding
        to zero packets per slot).
    """
    if duration_s <= 0 or packets_per_second <= 0 or slot_s <= 0:
        raise ValueError("duration, packet rate and slot length must be positive")
    n_slots, packets_per_slot, final_packets = _stream_shape(
        duration_s, packets_per_second, slot_s
    )
    per_segment = [
        segment.sample_slot_rates(n_slots, hour_cet, rng) for segment in path.segments
    ]
    rates = combine_rates(per_segment, n_slots)
    if final_packets == packets_per_slot:
        slot_packets = packets_per_slot
    else:
        # Non-divisible duration: the final slot is partial and carries
        # fewer packets, but its tail seconds are still accounted.
        slot_packets = np.full(n_slots, packets_per_slot)
        slot_packets[-1] = final_packets
    slot_losses = rng.binomial(slot_packets, rates)
    jitter_samples = rng.gamma(
        cal.JITTER_GAMMA_SHAPE,
        path_view(path)[2] * _jitter_rate_factor(packets_per_second),
        size=n_slots,
    )
    # Congestion inflates jitter: couple it to the slot loss rates.
    jitter_samples = jitter_samples * (1.0 + 40.0 * rates)
    jitter_p95 = float(np.percentile(jitter_samples, 95))
    return StreamResult(
        packets_sent=packets_per_slot * (n_slots - 1) + final_packets,
        slot_losses=slot_losses,
        jitter_p95_ms=jitter_p95,
        rtt_ms=path.rtt_ms(),
        heavy_loss_slots=int(count_heavy_loss_slots(slot_losses, slot_packets)),
    )


@dataclass(slots=True)
class PingResult:
    """Outcome of an ICMP probe burst."""

    sent: int
    lost: int
    rtts_ms: list[float] = field(default_factory=list)

    @property
    def min_rtt_ms(self) -> float | None:
        """Lowest observed RTT (the paper records this), None if all lost."""
        return min(self.rtts_ms) if self.rtts_ms else None

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.sent if self.sent else 0.0


def simulate_ping(
    path: DataPath,
    *,
    count: int = 5,
    hour_cet: float = 12.0,
    rng: np.random.Generator,
) -> PingResult:
    """Send ``count`` spaced ICMP echoes and collect RTTs.

    Each echo independently samples the loss state; RTT gets a small
    positive queueing perturbation on top of the path propagation time,
    so the min-RTT estimator behaves as in real measurements.

    Raises
    ------
    ValueError
        For a non-positive count.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count!r}")
    per_segment = [
        segment.sample_slot_rates(count, hour_cet, rng) for segment in path.segments
    ]
    rates = combine_rates(per_segment, count)
    base_rtt = path.rtt_ms()
    rtts: list[float] = []
    lost = 0
    jitter = rng.exponential(0.6, size=count)
    drops = rng.random(count)
    for i in range(count):
        if drops[i] < rates[i]:
            lost += 1
        else:
            rtts.append(base_rtt + float(jitter[i]))
    return PingResult(sent=count, lost=lost, rtts_ms=rtts)


def simulate_probe_round(
    path: DataPath,
    *,
    packets: int = 100,
    hour_cet: float = 12.0,
    rng: np.random.Generator,
) -> PingResult:
    """One back-to-back probe round (Sec. 5.2: 100 packets every 10 min).

    Back-to-back packets share the congestion state, so the round samples
    one rate and draws losses binomially.

    Raises
    ------
    ValueError
        For a non-positive packet count.
    """
    if packets <= 0:
        raise ValueError(f"packets must be positive, got {packets!r}")
    per_segment = []
    for segment in path.segments:
        # A 100-packet back-to-back round occupies the wire for ~2 s.
        if segment.kind is SegmentKind.TRANSIT:
            # Back-to-back bursts stress trunk queues far more than paced
            # traffic (this is how the Sec. 5.2 probe averages and the
            # Sec. 5.1 paced-stream CCDFs coexist on the same corridors).
            # The factor amplifies only the segment's own stochastic
            # congestion state: an injected DegradedSegment.extra_loss is
            # rate-independent path loss, so it stacks on top afterwards
            # instead of being multiplied by the burst factor.
            rates = PathSegment.sample_slot_rates(
                segment, 1, hour_cet, rng, duration_s=2.0
            )
            rates = np.minimum(rates * cal.PROBE_BURST_FACTOR, 0.95)
            extra = getattr(segment, "extra_loss", 0.0)
            if extra:
                rates = np.clip(rates + extra, 0.0, 0.95)
        else:
            rates = segment.sample_slot_rates(1, hour_cet, rng, duration_s=2.0)
        per_segment.append(rates)
    rate = float(combine_rates(per_segment, 1)[0])
    lost = int(rng.binomial(packets, rate))
    base_rtt = path.rtt_ms()
    received = packets - lost
    rtts = (base_rtt + rng.exponential(0.6, size=received)).tolist() if received else []
    return PingResult(sent=packets, lost=lost, rtts_ms=rtts)
