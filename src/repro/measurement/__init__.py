"""Measurement infrastructure: probes, schedules, statistics.

Reimplements the paper's measurement campaigns as reusable pieces: ICMP
ping probing with min-RTT recording (Sec. 4.1/4.3), back-to-back loss
probes (Sec. 5.2), CET-based schedules, and the CDF/CCDF statistics every
figure plots.
"""

from repro.measurement.stats import (
    Ccdf,
    Cdf,
    fraction_at_most,
    fraction_exceeding,
    percentiles,
)
from repro.measurement.scheduler import (
    rounds_every,
)
from repro.measurement.ping import PingCampaign, PopRttMeasurement
from repro.measurement.probes import (
    LossProbeCampaign,
    ProbeObservation,
    TargetHost,
    select_hosts,
)

__all__ = [
    "Cdf",
    "Ccdf",
    "percentiles",
    "fraction_at_most",
    "fraction_exceeding",
    "rounds_every",
    "PingCampaign",
    "PopRttMeasurement",
    "LossProbeCampaign",
    "ProbeObservation",
    "TargetHost",
    "select_hosts",
]
