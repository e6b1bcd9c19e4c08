"""Video/audio codec profiles.

"The clients use actual recordings of 720p and 1080p HD video conferences
as input."  We model a recording by its steady-state packetisation: a
1080p conference stream at ~4 Mb/s in ~1200-byte RTP packets runs at
~420 packets/s; 720p at ~2.5 Mb/s runs at ~260 packets/s — "720p video
streams experience more jitter since they consist of fewer video packets"
falls straight out of the lower rate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class VideoProfile:
    """Steady-state packetisation of a conference stream."""

    name: str
    bitrate_bps: float
    packet_bytes: int
    is_video: bool = True

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate_bps!r}")
        if self.packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.packet_bytes!r}")

    @property
    def packets_per_second(self) -> float:
        """Packet rate implied by bitrate and packet size."""
        return self.bitrate_bps / (8.0 * self.packet_bytes)

    def __str__(self) -> str:
        return self.name


#: Full-HD conference video, the paper's primary workload.
PROFILE_1080P = VideoProfile(name="1080p", bitrate_bps=4_000_000, packet_bytes=1190)

#: HD-ready conference video.
PROFILE_720P = VideoProfile(name="720p", bitrate_bps=2_500_000, packet_bytes=1190)

#: Conference audio (the paper observed no loss-rate difference between
#: audio and video packets; we model audio for completeness).
AUDIO_OPUS = VideoProfile(
    name="opus-audio", bitrate_bps=64_000, packet_bytes=160, is_video=False
)
