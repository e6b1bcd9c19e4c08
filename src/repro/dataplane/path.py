"""Forwarding paths: assembling segments from control-plane decisions.

Given an AS-level path (from :mod:`repro.bgp.propagation`) and the
geography of every AS's presence points, this module lays out concrete
waypoints: traffic enters each transit AS at the presence point nearest to
where it currently is, is carried to the presence point nearest to the
destination (transit networks do carry traffic; their hot-potato economics
are already captured by *which* AS path was selected), and finally crosses
the destination's access network.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from repro.dataplane.link import PathSegment, SegmentKind, intern_segment
from repro.geo.coords import GeoPoint
from repro.net.asn import ASType
from repro.net.topology import InternetTopology


@dataclass(slots=True)
class DataPath:
    """An ordered list of segments between two endpoints."""

    segments: list[PathSegment]
    description: str = ""
    #: lazily-computed RTT (segments are fixed after construction; both
    #: the resolve and simulate phases ask for the same path's RTT).
    _rtt_ms: float | None = field(default=None, repr=False, compare=False)
    #: the columnar kernel's view of this path (segment ids, RTT, jitter
    #: base), built by the kernel the first time it simulates the path.
    _kernel_view: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __reduce__(self):
        # Pickle the value, not the memos: segment ids are per process.
        return (DataPath, (self.segments, self.description))

    def one_way_delay_ms(self) -> float:
        """Total one-way delay."""
        return sum(segment.delay_ms() for segment in self.segments)

    def rtt_ms(self) -> float:
        """Round-trip time assuming a symmetric reverse path (memoised)."""
        rtt = self._rtt_ms
        if rtt is None:
            rtt = self._rtt_ms = 2.0 * self.one_way_delay_ms()
        return rtt

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def concat(self, other: "DataPath") -> "DataPath":
        """This path followed by ``other`` (e.g. VNS leg + Internet leg)."""
        return DataPath(
            segments=self.segments + other.segments,
            description=f"{self.description}+{other.description}",
        )

    def reversed(self) -> "DataPath":
        """The same segments walked in the opposite direction."""
        segments = [
            intern_segment(s.kind, s.end, s.start, s.as_type, s.owner_type, f"rev:{s.label}")
            for s in reversed(self.segments)
        ]
        return DataPath(segments=segments, description=f"rev:{self.description}")

    def __str__(self) -> str:
        inner = " | ".join(str(segment) for segment in self.segments)
        return f"DataPath({self.description}: {inner})"


@lru_cache(maxsize=None)
def _as_at(asn: int, city_name: str) -> str:
    """Memoised ``AS<n>@<city>`` waypoint label — a tiny, heavily reused set."""
    return f"AS{asn}@{city_name}"


def assemble_as_path_waypoints(
    topology: InternetTopology,
    as_path: Sequence[int],
    start: GeoPoint,
    destination: GeoPoint,
) -> list[tuple[GeoPoint, str]]:
    """Waypoints through the ASes of ``as_path``.

    For each AS: enter at the presence point nearest the current location,
    exit at the presence point nearest the destination (dropped when it is
    the same site).  Returns ``(location, label, owner AS type)`` tuples,
    excluding the start and final destination points.

    Raises
    ------
    KeyError
        If an AS on the path is unknown to the topology.
    """
    waypoints: list[tuple[GeoPoint, str, ASType]] = []
    current = start
    for asn in as_path:
        system = topology.autonomous_system(asn)
        entry = system.nearest_presence(current)
        waypoints.append((entry.location, _as_at(asn, entry.city.name), system.as_type))
        exit_point = system.nearest_presence(destination)
        if exit_point.city.name != entry.city.name:
            waypoints.append(
                (exit_point.location, _as_at(asn, exit_point.city.name), system.as_type)
            )
        current = exit_point.location
    return waypoints


def internet_path(
    topology: InternetTopology,
    as_path: Sequence[int],
    start: GeoPoint,
    destination: GeoPoint,
    *,
    destination_as_type: ASType | None = None,
    first_segment_kind: SegmentKind = SegmentKind.PEERING,
    final_access: bool = True,
    description: str = "",
) -> DataPath:
    """A concrete path along ``as_path`` from ``start`` to ``destination``.

    ``first_segment_kind`` describes the hop from ``start`` into the first
    AS: ``PEERING`` when the start is a router handing off at an exchange
    (VNS egress), ``ACCESS`` when the start is an end host behind its
    provider.  The final hop into ``destination`` is an ACCESS segment
    typed with ``destination_as_type`` — unless ``final_access`` is false,
    for destinations that are themselves infrastructure (e.g. the echo
    servers co-located in VNS PoPs in the Sec. 5.1 video experiment,
    which measures the long haul *without* a last mile).
    """
    waypoints = assemble_as_path_waypoints(topology, as_path, start, destination)
    segments: list[PathSegment] = []
    current, current_label = start, "start"
    last_owner: ASType | None = None
    for location, label, owner in waypoints:
        kind = first_segment_kind if not segments else SegmentKind.TRANSIT
        segments.append(
            intern_segment(
                kind,
                current,
                location,
                owner_type=owner,
                label=f"{current_label}->{label}",
            )
        )
        current, current_label, last_owner = location, label, owner
    final_kind = SegmentKind.ACCESS if final_access else SegmentKind.TRANSIT
    segments.append(
        intern_segment(
            final_kind,
            current,
            destination,
            as_type=destination_as_type if final_access else None,
            owner_type=None if final_access else last_owner,
            label=f"{current_label}->dst",
        )
    )
    return DataPath(segments=segments, description=description)
