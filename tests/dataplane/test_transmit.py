"""Unit tests for stream/probe transmission simulation."""

import numpy as np
import pytest

from repro.dataplane.link import PathSegment, SegmentKind
from repro.dataplane.path import DataPath
from repro.dataplane.transmit import (
    combine_rates,
    simulate_ping,
    simulate_probe_round,
    simulate_stream,
)
from repro.geo.cities import city_by_name
from repro.net.asn import ASType

AMS = city_by_name("Amsterdam").location
SIN = city_by_name("Singapore").location


def transit_path() -> DataPath:
    return DataPath(
        segments=[
            PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.LTP)
        ],
        description="test",
    )


def lossless_path() -> DataPath:
    return DataPath(
        segments=[PathSegment(kind=SegmentKind.PEERING, start=AMS, end=AMS)],
        description="clean",
    )


class TestCombineRates:
    def test_empty_with_slots(self):
        assert combine_rates([], 5).shape == (5,)

    def test_combination_formula(self):
        a = np.array([0.1, 0.0])
        b = np.array([0.1, 0.2])
        combined = combine_rates([a, b])
        assert combined[0] == pytest.approx(1 - 0.9 * 0.9)
        assert combined[1] == pytest.approx(0.2)

    def test_never_exceeds_one(self):
        a = np.array([0.9])
        combined = combine_rates([a, a, a])
        assert combined[0] <= 1.0


class TestSimulateStream:
    def test_slot_accounting(self, rng):
        result = simulate_stream(transit_path(), rng=rng)
        assert result.n_slots == 24
        assert result.packets_sent == 24 * 2100
        assert 0 <= result.packets_lost <= result.packets_sent
        assert result.lossy_slots <= result.n_slots

    def test_loss_percent_consistent(self, rng):
        result = simulate_stream(transit_path(), rng=rng)
        expected = 100.0 * result.packets_lost / result.packets_sent
        assert result.loss_percent == pytest.approx(expected)

    def test_lossless_path(self, rng):
        result = simulate_stream(lossless_path(), rng=rng)
        assert result.packets_lost == 0
        assert result.lossy_slots == 0

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            simulate_stream(transit_path(), duration_s=0, rng=rng)
        with pytest.raises(ValueError):
            simulate_stream(transit_path(), packets_per_second=0, rng=rng)

    def test_720p_has_more_jitter_than_1080p(self, rng):
        path = transit_path()
        j1080 = np.mean(
            [
                simulate_stream(path, packets_per_second=420, rng=rng).jitter_p95_ms
                for _ in range(300)
            ]
        )
        j720 = np.mean(
            [
                simulate_stream(path, packets_per_second=260, rng=rng).jitter_p95_ms
                for _ in range(300)
            ]
        )
        assert j720 > j1080

    def test_rtt_constant_per_path(self, rng):
        path = transit_path()
        r1 = simulate_stream(path, rng=rng)
        r2 = simulate_stream(path, rng=rng)
        assert r1.rtt_ms == r2.rtt_ms == path.rtt_ms()


class TestSimulatePing:
    def test_count_respected(self, rng):
        result = simulate_ping(lossless_path(), count=5, rng=rng)
        assert result.sent == 5
        assert result.lost == 0
        assert len(result.rtts_ms) == 5

    def test_min_rtt_above_propagation(self, rng):
        path = transit_path()
        result = simulate_ping(path, rng=rng)
        assert result.min_rtt_ms >= path.rtt_ms()

    def test_all_lost_returns_none(self, rng):
        result = simulate_ping(lossless_path(), count=3, rng=rng)
        assert result.min_rtt_ms is not None
        empty = type(result)(sent=3, lost=3, rtts_ms=[])
        assert empty.min_rtt_ms is None
        assert empty.loss_fraction == 1.0

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            simulate_ping(lossless_path(), count=0, rng=rng)


class TestSimulateProbeRound:
    def test_round_shape(self, rng):
        result = simulate_probe_round(lossless_path(), packets=100, rng=rng)
        assert result.sent == 100
        assert result.lost == 0

    def test_burst_amplification_vs_stream(self, rng):
        """Probe rounds see more loss per packet than paced streams on the
        same congested corridor (Sec. 5.1 vs 5.2 reconciliation)."""
        path = transit_path()
        probe_loss = np.mean(
            [
                simulate_probe_round(path, packets=100, rng=rng).loss_fraction
                for _ in range(4000)
            ]
        )
        stream_loss = np.mean(
            [
                simulate_stream(path, rng=rng).packets_lost
                / simulate_stream(path, rng=rng).packets_sent
                for _ in range(500)
            ]
        )
        assert probe_loss > stream_loss

    def test_invalid_packets(self, rng):
        with pytest.raises(ValueError):
            simulate_probe_round(lossless_path(), packets=0, rng=rng)


class TestStreamShapeGuards:
    def test_shape_accounting(self):
        from repro.dataplane.transmit import _stream_shape

        assert _stream_shape(120.0, 420.0, 5.0) == (24, 2100, 2100)
        assert _stream_shape(12.0, 420.0, 5.0) == (3, 2100, 840)

    def test_final_partial_slot_carries_at_least_one_packet(self, rng):
        from repro.dataplane.transmit import _stream_shape

        # A 0.5 ms tail rounds to zero packets; the guard clamps it to
        # one so the slot can never report loss-free traffic it never
        # carried.
        n_slots, per_slot, final = _stream_shape(10.0005, 420.0, 5.0)
        assert (n_slots, per_slot, final) == (3, 2100, 1)
        result = simulate_stream(transit_path(), duration_s=10.0005, rng=rng)
        assert result.packets_sent == 2 * 2100 + 1

    def test_sub_packet_rate_rejected_everywhere(self, rng):
        from repro.dataplane import StreamColumnSpec, simulate_stream_columns

        # 0.05 pps over 5 s slots rounds to zero packets per slot.
        with pytest.raises(ValueError, match="sub-packet-rate"):
            simulate_stream(transit_path(), packets_per_second=0.05, rng=rng)
        with pytest.raises(ValueError, match="sub-packet-rate"):
            simulate_stream_columns(
                [StreamColumnSpec(transit_path(), 3, 120.0, 12.0, (1, 2), 0)],
                packets_per_second=0.05,
            )


class TestProbeExtraLoss:
    def test_injected_loss_is_not_burst_amplified(self, rng):
        """An injected DegradedSegment.extra_loss is rate-independent
        path loss: it stacks additively on the probe's amplified
        congestion state instead of being multiplied by the burst
        factor."""
        from repro.dataplane import calibration as cal
        from repro.dataplane.link import degrade_segment

        extra = 0.1
        clean = transit_path()
        degraded = DataPath(
            segments=[degrade_segment(clean.segments[0], extra_loss=extra)],
            description="degraded",
        )
        n = 1500
        clean_loss = np.mean(
            [
                simulate_probe_round(clean, packets=100, rng=rng).loss_fraction
                for _ in range(n)
            ]
        )
        degraded_loss = np.mean(
            [
                simulate_probe_round(degraded, packets=100, rng=rng).loss_fraction
                for _ in range(n)
            ]
        )
        delta = degraded_loss - clean_loss
        # Additive (within sampling noise and rare clipping)...
        assert 0.07 < delta < 0.15
        # ... and nowhere near the old amplified (x8) behaviour.
        assert delta < 0.5 * cal.PROBE_BURST_FACTOR * extra
