"""The instrumented measurement client of Sec. 5.1.

Streams a pre-recorded conference to an echo server and measures loss and
jitter, logging lost packets per five-second slot ("we split each
two-minute measurement period into 24 five-second long slots and record
loss in each slot").  A session is bidirectional: the outbound stream
crosses the forward path and the echoed stream crosses the reverse path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataplane.path import DataPath
from repro.dataplane.transmit import StreamResult, simulate_stream
from repro.media.codec import VideoProfile
from repro.media.rtp import RtpStreamSpec, new_ssrc
from repro.media.sip import CallState, EchoServer, SipClient


@dataclass(slots=True)
class SessionMeasurement:
    """What the client logs for one echo session."""

    client_name: str
    server: str
    profile: VideoProfile
    outbound: StreamResult
    inbound: StreamResult
    call_established: bool

    @property
    def loss_percent_out(self) -> float:
        return self.outbound.loss_percent

    @property
    def loss_percent_in(self) -> float:
        return self.inbound.loss_percent

    @property
    def lossy_slots_out(self) -> int:
        return self.outbound.lossy_slots

    @property
    def jitter_p95_ms(self) -> float:
        return max(self.outbound.jitter_p95_ms, self.inbound.jitter_p95_ms)

    @property
    def rtt_ms(self) -> float:
        return self.outbound.rtt_ms


def reverse_path(path: DataPath) -> DataPath:
    """The same segments walked in the opposite direction."""
    from repro.dataplane.link import PathSegment

    reversed_segments = [
        PathSegment(
            kind=segment.kind,
            start=segment.end,
            end=segment.start,
            as_type=segment.as_type,
            owner_type=segment.owner_type,
            label=f"rev:{segment.label}",
        )
        for segment in reversed(path.segments)
    ]
    return DataPath(segments=reversed_segments, description=f"rev:{path.description}")


class InstrumentedClient:
    """A streaming client that measures what it sends and receives."""

    def __init__(self, name: str, *, rng: np.random.Generator) -> None:
        self.name = name
        self.rng = rng
        self.sip = SipClient(uri=f"sip:{name}@vns-measure")

    def run_session(
        self,
        server: EchoServer,
        path: DataPath,
        profile: VideoProfile,
        *,
        duration_s: float = 120.0,
        hour_cet: float = 12.0,
    ) -> SessionMeasurement | None:
        """One echo session over ``path``; ``None`` if call setup failed.

        The echoed (inbound) stream independently samples the reverse
        path: forward and reverse congestion are correlated in time but
        not packet-by-packet.
        """
        call = self.sip.invite(
            server, profile, path, hour_cet=hour_cet, rng=self.rng
        )
        if call.state is not CallState.ESTABLISHED:
            return None
        spec = RtpStreamSpec(
            ssrc=new_ssrc(self.rng), profile=profile, duration_s=duration_s
        )
        outbound = simulate_stream(
            path,
            duration_s=duration_s,
            packets_per_second=profile.packets_per_second,
            slot_s=spec.slot_s,
            hour_cet=hour_cet,
            rng=self.rng,
        )
        inbound = simulate_stream(
            reverse_path(path),
            duration_s=duration_s,
            packets_per_second=profile.packets_per_second,
            slot_s=spec.slot_s,
            hour_cet=hour_cet,
            rng=self.rng,
        )
        self.sip.bye(call, path, hour_cet=hour_cet, rng=self.rng)
        return SessionMeasurement(
            client_name=self.name,
            server=server.uri,
            profile=profile,
            outbound=outbound,
            inbound=inbound,
            call_established=True,
        )
