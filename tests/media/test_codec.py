"""Unit tests for codec profiles."""

import pytest

from repro.media.codec import AUDIO_OPUS, PROFILE_1080P, PROFILE_720P, VideoProfile


class TestProfiles:
    def test_1080p_packet_rate(self):
        # ~4 Mb/s in ~1190-byte packets is ~420 packets/s.
        assert PROFILE_1080P.packets_per_second == pytest.approx(420, rel=0.02)

    def test_720p_fewer_packets(self):
        # The paper: 720p "consist[s] of fewer video packets".
        assert PROFILE_720P.packets_per_second < PROFILE_1080P.packets_per_second

    def test_audio_flag(self):
        assert not AUDIO_OPUS.is_video
        assert PROFILE_1080P.is_video

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            VideoProfile(name="bad", bitrate_bps=0, packet_bytes=100)
        with pytest.raises(ValueError):
            VideoProfile(name="bad", bitrate_bps=1000, packet_bytes=0)
