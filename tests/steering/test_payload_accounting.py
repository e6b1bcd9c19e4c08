"""The budget planner and the simulator count the same packets.

``stream_payload_bytes`` is what ``CostBudgetedPolicy.prepare`` plans
against and what every steering decision is offered as the call's
payload; ``simulate_stream`` is what actually sends.  Both read
``transmit._stream_shape``, so they agree on every duration — including
a partial final slot so short its packet count rounds to zero, which the
simulator clamps to one packet.
"""

import numpy as np
import pytest

from repro.dataplane.link import PathSegment, SegmentKind
from repro.dataplane.path import DataPath
from repro.dataplane.transmit import simulate_stream
from repro.geo.coords import GeoPoint
from repro.net.asn import ASType
from repro.steering import MEDIA_PACKET_BYTES, stream_payload_bytes

LON = GeoPoint(51.5, -0.12)
PATH = DataPath(
    segments=[
        PathSegment(kind=SegmentKind.ACCESS, start=LON, end=LON, as_type=ASType.EC)
    ],
    description="one access leg",
)

#: Whole slots, ordinary partial slots, and finals that round to zero.
DURATIONS = (120.0, 12.0, 7.5, 0.3, 10.001, 5.004, 4.999, 15.0009, 300.0011)


@pytest.mark.parametrize("duration_s", DURATIONS)
@pytest.mark.parametrize("pps, slot_s", ((50.0, 5.0), (420.0, 5.0), (30.0, 2.0)))
def test_planned_bytes_are_the_packets_sent(duration_s, pps, slot_s):
    sent = simulate_stream(
        PATH,
        duration_s=duration_s,
        packets_per_second=pps,
        slot_s=slot_s,
        rng=np.random.default_rng(0),
    ).packets_sent
    assert stream_payload_bytes(duration_s, pps, slot_s) == sent * MEDIA_PACKET_BYTES


def test_the_clamped_final_slot_is_counted():
    # 10.001 s at 50 pps: two full slots and a 1 ms tail that rounds to
    # zero packets — the simulator sends one, so the planner plans one.
    assert stream_payload_bytes(10.001, 50.0, 5.0) == 501 * MEDIA_PACKET_BYTES
    assert stream_payload_bytes(5.004, 50.0, 5.0) == 251 * MEDIA_PACKET_BYTES
