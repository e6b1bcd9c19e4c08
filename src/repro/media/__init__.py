"""Media plane: codecs, RTP, SIP, TURN relays, measurement clients.

The Sec. 5.1 experiment uses "custom-made software tools capable of
running Session Initiation Protocol (SIP) and Real Time Protocol (RTP)
media streaming, instrumented to measure packet loss and jitter", with
"SIP media servers programmed to stream back any incoming video stream to
the source address".  This subpackage reproduces those tools on top of
the data-plane simulator.
"""

from repro.media.codec import (
    AUDIO_OPUS,
    PROFILE_1080P,
    PROFILE_720P,
    VideoProfile,
)
from repro.media.rtp import RtpStreamSpec
from repro.media.sip import EchoServer, SipCall, SipClient, SipResponse
from repro.media.turn import TurnRelay, TurnService
from repro.media.client import InstrumentedClient, SessionMeasurement

__all__ = [
    "VideoProfile",
    "PROFILE_1080P",
    "PROFILE_720P",
    "AUDIO_OPUS",
    "RtpStreamSpec",
    "SipClient",
    "SipCall",
    "SipResponse",
    "EchoServer",
    "TurnRelay",
    "TurnService",
    "InstrumentedClient",
    "SessionMeasurement",
]
