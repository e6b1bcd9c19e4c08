"""A miniature SIP layer: clients, calls, and echo servers.

Enough of RFC 3261 to make the Sec. 5.1 experiment faithful in shape: an
INVITE/200/ACK handshake establishes a call; BYE tears it down; the echo
server answers every INVITE and "stream[s] back any incoming video stream
to the source address".  Signalling travels over the same data path as
media (and can therefore fail), which the harness must tolerate just like
the real tooling did.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.dataplane.path import DataPath
from repro.media.codec import VideoProfile


class SipResponse(enum.IntEnum):
    """The response classes the simulation distinguishes."""

    TRYING = 100
    RINGING = 180
    OK = 200
    REQUEST_TIMEOUT = 408
    SERVER_ERROR = 500

    @property
    def is_success(self) -> bool:
        return self == SipResponse.OK


class CallState(enum.Enum):
    IDLE = "idle"
    INVITING = "inviting"
    ESTABLISHED = "established"
    TERMINATED = "terminated"
    FAILED = "failed"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class SipCall:
    """One call's signalling state."""

    call_id: str
    from_uri: str
    to_uri: str
    profile: VideoProfile
    state: CallState = CallState.IDLE
    transcript: list[str] = field(default_factory=list)

    def _log(self, line: str) -> None:
        self.transcript.append(line)


class EchoServer:
    """A SIP media server that answers calls and echoes media.

    Parameters
    ----------
    uri:
        The server's SIP URI, e.g. ``"sip:echo-ams1@vns.example"``.
    pop_code:
        The VNS PoP hosting the server.
    """

    def __init__(self, uri: str, pop_code: str) -> None:
        self.uri = uri
        self.pop_code = pop_code
        self.answered = 0

    def handle_invite(self, call: SipCall) -> SipResponse:
        """Answer an INVITE: the echo server accepts every call."""
        self.answered += 1
        call._log(f"<- 200 OK ({self.uri})")
        return SipResponse.OK

    def __str__(self) -> str:
        return f"EchoServer({self.uri}@{self.pop_code})"


class SipClient:
    """A measurement client's signalling half.

    Signalling messages cross the same lossy path as media; each message
    is retransmitted up to ``max_retransmits`` times (SIP timer E/F
    behaviour collapsed to a retry count).
    """

    def __init__(self, uri: str, *, max_retransmits: int = 6) -> None:
        if max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")
        self.uri = uri
        self.max_retransmits = max_retransmits
        self._next_call = 0

    def _message_survives(
        self, path: DataPath, hour_cet: float, rng: np.random.Generator
    ) -> bool:
        """Whether one signalling datagram crosses the path."""
        rates = [
            segment.sample_slot_rates(1, hour_cet, rng)[0] for segment in path.segments
        ]
        survive = 1.0
        for rate in rates:
            survive *= 1.0 - float(rate)
        return bool(rng.random() < survive)

    def _deliver(
        self, path: DataPath, hour_cet: float, rng: np.random.Generator
    ) -> bool:
        """Deliver with retransmissions (request and response legs)."""
        for _ in range(self.max_retransmits + 1):
            if self._message_survives(path, hour_cet, rng) and self._message_survives(
                path, hour_cet, rng
            ):
                return True
        return False

    def invite(
        self,
        server: EchoServer,
        profile: VideoProfile,
        path: DataPath,
        *,
        hour_cet: float = 12.0,
        rng: np.random.Generator,
    ) -> SipCall:
        """Set up a call to an echo server over ``path``."""
        self._next_call += 1
        call = SipCall(
            call_id=f"{self.uri}-{self._next_call}",
            from_uri=self.uri,
            to_uri=server.uri,
            profile=profile,
        )
        call.state = CallState.INVITING
        call._log(f"-> INVITE {server.uri} ({profile})")
        if not self._deliver(path, hour_cet, rng):
            call._log("!! INVITE timeout")
            call.state = CallState.FAILED
            return call
        response = server.handle_invite(call)
        if not response.is_success:
            call.state = CallState.FAILED
            return call
        call._log("-> ACK")
        if not self._deliver(path, hour_cet, rng):
            call._log("!! ACK timeout")
            call.state = CallState.FAILED
            return call
        call.state = CallState.ESTABLISHED
        return call

    def bye(
        self,
        call: SipCall,
        path: DataPath,
        *,
        hour_cet: float = 12.0,
        rng: np.random.Generator,
    ) -> None:
        """Tear down an established call.

        Raises
        ------
        ValueError
            If the call is not established.
        """
        if call.state is not CallState.ESTABLISHED:
            raise ValueError(f"cannot BYE a call in state {call.state}")
        call._log("-> BYE")
        self._deliver(path, hour_cet, rng)  # best effort; dialog ends anyway
        call.state = CallState.TERMINATED
