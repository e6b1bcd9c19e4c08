"""The stream kernel's working set does not grow with the campaign.

:func:`~repro.dataplane.columnar.simulate_columns` cuts each slot-count
bucket into passes of at most a fixed budget of cells (streams x slots),
so what one call allocates beyond the columns it returns — the pass
temporaries: draws, rates, packet and jitter matrices — is bounded by
the budget, whatever the stream count.  Measured in bytes with
``tracemalloc`` (numpy reports its buffers to it), so the test does not
depend on the host's speed.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from repro.dataplane.columnar import StreamColumns, StreamColumnSpec, simulate_columns
from repro.dataplane.link import PathSegment, SegmentKind
from repro.dataplane.path import DataPath
from repro.geo.cities import city_by_name
from repro.net.asn import ASType

AMS = city_by_name("Amsterdam").location
SIN = city_by_name("Singapore").location

#: 300 s streams: 60 slots each at the default 5 s slot.
DURATION_S = 300.0
#: 4,096 streams are 245,760 cells, several default-budget passes.
N_STREAMS = 4096


def campaign_path() -> DataPath:
    return DataPath(
        segments=[
            PathSegment(kind=SegmentKind.ACCESS, start=AMS, end=AMS, as_type=ASType.EC),
            PathSegment(kind=SegmentKind.PEERING, start=AMS, end=AMS),
            PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, owner_type=ASType.LTP),
            PathSegment(kind=SegmentKind.VNS_L2, start=SIN, end=SIN),
            PathSegment(kind=SegmentKind.ACCESS, start=SIN, end=SIN, as_type=ASType.CAHP),
        ],
        description="campaign-shaped",
    )


def held_bytes(columns: StreamColumns) -> int:
    """The bytes the returned columns hold: every array and loss matrix."""
    values = [getattr(columns, field.name) for field in dataclasses.fields(columns)]
    arrays = [value for value in values if isinstance(value, np.ndarray)]
    return sum(array.nbytes for array in arrays + columns.losses)


def transient_peak(n_streams: int) -> int:
    """Peak bytes of one call beyond what its returned columns hold."""
    spec = StreamColumnSpec(campaign_path(), n_streams, DURATION_S, 20.5, (11, 13))
    # Warm up first: scipy, the quantile tables and the segment table's
    # rows are one-off costs, not the pass's working set.
    simulate_columns([spec])
    tracemalloc.start()
    try:
        columns = simulate_columns([spec])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held_bytes(columns)


def test_held_bytes_are_the_result():
    spec = StreamColumnSpec(campaign_path(), 100, DURATION_S, 20.5, (11, 13))
    # 100 rows x 60 int64 slots, eight 8-byte per-row columns, 2 spec starts.
    assert held_bytes(simulate_columns([spec])) == 100 * 60 * 8 + 8 * 100 * 8 + 2 * 8


def test_pass_temporaries_do_not_grow_with_the_stream_count():
    small = transient_peak(N_STREAMS)
    large = transient_peak(4 * N_STREAMS)
    assert small > 0
    assert large <= 1.25 * small, (small, large)
