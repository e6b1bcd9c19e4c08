"""Media plane: codec profiles and TURN relays.

The Sec. 5.1 experiment streams "actual recordings of 720p and 1080p HD
video conferences"; a recording is modelled by its packetisation
(:mod:`repro.media.codec`), and the streams themselves run on the
data-plane simulators (:mod:`repro.experiments.video`).  Users reach VNS
through TURN relays behind one anycast address (:mod:`repro.media.turn`,
Fig. 7).
"""

from repro.media.codec import (
    AUDIO_OPUS,
    PROFILE_1080P,
    PROFILE_720P,
    VideoProfile,
)
from repro.media.turn import TurnRelay, TurnService

__all__ = [
    "VideoProfile",
    "PROFILE_1080P",
    "PROFILE_720P",
    "AUDIO_OPUS",
    "TurnRelay",
    "TurnService",
]
