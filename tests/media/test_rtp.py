"""Unit tests for RTP accounting."""

import numpy as np
import pytest

from repro.media.codec import PROFILE_1080P
from repro.media.rtp import RtpStreamSpec, new_ssrc


@pytest.fixture
def spec() -> RtpStreamSpec:
    return RtpStreamSpec(ssrc=42, profile=PROFILE_1080P)


class TestSpec:
    def test_paper_slot_structure(self, spec):
        # Two minutes split into 24 five-second slots (Sec. 5.1.2).
        assert spec.n_slots == 24
        assert spec.packets_per_slot == PROFILE_1080P.packets_in(5.0)
        assert spec.total_packets == 24 * spec.packets_per_slot

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RtpStreamSpec(ssrc=1, profile=PROFILE_1080P, duration_s=0)
        with pytest.raises(ValueError):
            RtpStreamSpec(ssrc=1, profile=PROFILE_1080P, slot_s=0)

    def test_non_divisible_duration_keeps_trailing_seconds(self):
        # Regression: 12 s / 5 s slots used to round to 2 slots, silently
        # dropping the final 2 seconds of media from the accounting.
        spec = RtpStreamSpec(ssrc=1, profile=PROFILE_1080P, duration_s=12.0)
        assert spec.n_slots == 3
        assert spec.slot_duration_s(0) == 5.0
        assert spec.slot_duration_s(1) == 5.0
        assert spec.slot_duration_s(2) == pytest.approx(2.0)
        assert spec.packets_in_slot(2) == PROFILE_1080P.packets_in(2.0)
        assert spec.total_packets == PROFILE_1080P.packets_in(12.0)

    def test_divisible_duration_unchanged(self):
        spec = RtpStreamSpec(ssrc=1, profile=PROFILE_1080P, duration_s=120.0)
        assert spec.n_slots == 24
        assert all(spec.packets_in_slot(i) == spec.packets_per_slot for i in range(24))

    def test_short_duration_single_partial_slot(self):
        spec = RtpStreamSpec(ssrc=1, profile=PROFILE_1080P, duration_s=2.0)
        assert spec.n_slots == 1
        assert spec.packets_in_slot(0) == PROFILE_1080P.packets_in(2.0)
        assert spec.total_packets == PROFILE_1080P.packets_in(2.0)

    def test_slot_duration_out_of_range(self):
        spec = RtpStreamSpec(ssrc=1, profile=PROFILE_1080P, duration_s=12.0)
        with pytest.raises(IndexError):
            spec.slot_duration_s(3)
        with pytest.raises(IndexError):
            spec.slot_duration_s(-1)


class TestSsrc:
    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 0 <= new_ssrc(rng) < 2**32
