"""Data-plane models: delay, loss, jitter, and transmission simulation.

The paper measures real packets over a real network; this subpackage is
the substitute substrate.  Delay comes from great-circle propagation with
an inflation factor; loss comes from calibrated stochastic models whose
parameters (see :mod:`repro.dataplane.calibration`) encode the paper's
*findings* — congested AP transit, distance-dependent loss, residential
diurnal cycles, well-provisioned VNS L2 links — so the experiment harness
reproduces the shape of every loss figure.
"""

from repro.dataplane.latency import (
    FIBER_MS_PER_KM,
    propagation_delay_ms,
)
from repro.dataplane.diurnal import DiurnalProfile, access_profile, transit_profile
from repro.dataplane.columnar import (
    StreamColumns,
    StreamColumnSpec,
    simulate_columns,
    simulate_stream_columns,
)
from repro.dataplane.link import SegmentKind, SegmentLossParams, PathSegment
from repro.dataplane.path import (
    DataPath,
    assemble_as_path_waypoints,
    internet_path,
)
from repro.dataplane.transmit import (
    PingResult,
    StreamResult,
    simulate_ping,
    simulate_probe_round,
    simulate_stream,
)

__all__ = [
    "FIBER_MS_PER_KM",
    "propagation_delay_ms",
    "DiurnalProfile",
    "access_profile",
    "transit_profile",
    "SegmentKind",
    "SegmentLossParams",
    "PathSegment",
    "StreamColumnSpec",
    "StreamColumns",
    "simulate_columns",
    "simulate_stream_columns",
    "DataPath",
    "assemble_as_path_waypoints",
    "internet_path",
    "PingResult",
    "StreamResult",
    "simulate_ping",
    "simulate_stream",
    "simulate_probe_round",
]
