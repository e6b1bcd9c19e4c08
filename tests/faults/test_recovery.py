"""Unit tests for the media side of the recovery measurement."""

import numpy as np
import pytest

from repro.dataplane.transmit import StreamResult
from repro.faults.recovery import overlay_outage


def clean_stream(duration_s: float, pps: int = 420, slot_s: float = 5.0) -> StreamResult:
    """A loss-free stream shaped as ``simulate_stream`` would shape it."""
    full, tail_s = divmod(duration_s, slot_s)
    n_slots = int(full) + (tail_s > 0)
    return StreamResult(
        packets_sent=int(pps * duration_s),
        slot_losses=np.zeros(n_slots, dtype=np.int64),
        jitter_p95_ms=1.0,
        rtt_ms=80.0,
        heavy_loss_slots=0,
    )


class TestOverlayOutage:
    def test_whole_slot_stream(self):
        out = overlay_outage(clean_stream(120.0), 7.0)
        assert list(out.slot_losses[:3]) == [2100, 2100, 0]
        assert out.packets_lost == 4200
        assert out.heavy_loss_slots == 2
        assert out.loss_percent == pytest.approx(100.0 * 2 / 24)

    def test_partial_final_slot_blanks_what_each_slot_carried(self):
        # 12 s at 420 pps carries 2100 / 2100 / 840.
        stream = clean_stream(12.0)
        five = overlay_outage(stream, 5.0)
        assert list(five.slot_losses) == [2100, 0, 0]
        assert five.loss_percent == pytest.approx(100.0 * 2100 / 5040)
        eleven = overlay_outage(stream, 11.0)
        assert list(eleven.slot_losses) == [2100, 2100, 840]
        assert eleven.packets_lost == eleven.packets_sent == 5040
        assert eleven.heavy_loss_slots == 3

    def test_partial_slot_below_the_heavy_threshold_of_an_even_share(self):
        # 17 packets are a heavy loss for the 840-packet tail slot, not
        # for an even 1680-packet share.
        stream = clean_stream(12.0)
        stream.slot_losses[-1] = 17
        assert overlay_outage(stream, 5.0).heavy_loss_slots == 2

    def test_zero_window_returns_the_stream(self):
        stream = clean_stream(120.0)
        assert overlay_outage(stream, 0.0) is stream

    def test_a_stream_at_another_rate_is_rejected(self):
        with pytest.raises(ValueError, match="420 pps"):
            overlay_outage(clean_stream(12.0, pps=100), 11.0)

    def test_bad_arguments_rejected(self):
        stream = clean_stream(120.0)
        with pytest.raises(ValueError):
            overlay_outage(stream, -1.0)
