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

from repro.dataplane import calibration as cal
from repro.dataplane.link import LOSS_TABLE, PathSegment, SegmentKind, intern_segment
from repro.geo.coords import GeoPoint
from repro.net.asn import ASType
from repro.net.topology import InternetTopology


#: What the kernel needs of a path: the :data:`LOSS_TABLE` id of each
#: segment in order, its round-trip time and its jitter scale before the
#: packet-rate factor.  A plain tuple of ids and floats, so the cyclic
#: collector untracks it and never walks it again.
PathView = tuple[tuple[int, ...], float, float]


@dataclass(slots=True)
class DataPath:
    """An ordered list of segments between two endpoints."""

    segments: list[PathSegment]
    description: str = ""
    #: the path's one memo, its view (:func:`path_view`): segments are
    #: fixed after construction, and the resolve, simulate and scalar
    #: phases all read the same path's RTT and jitter base off it.
    _kernel_view: PathView | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __reduce__(self):
        # Pickle the value, not the memo: segment ids are per process.
        return (DataPath, (self.segments, self.description))

    def rtt_ms(self) -> float:
        """Round-trip time assuming a symmetric reverse path (its view's)."""
        return path_view(self)[1]

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


def path_view(path: DataPath) -> PathView:
    """``path``'s view, built the first time it is asked for and kept on
    the path (``_kernel_view``)."""
    view = path._kernel_view
    if view is None:
        sids = tuple(map(LOSS_TABLE.segment_id, path.segments))
        view = path._kernel_view = ids_view(sids)
    return view


def view_path(view: PathView, description: str) -> DataPath:
    """The path ``view`` was taken of: its ids' segments (the interned
    value of each, from :data:`LOSS_TABLE`), with the view kept on it."""
    path = DataPath(
        segments=list(map(LOSS_TABLE.segments.__getitem__, view[0])),
        description=description,
    )
    path._kernel_view = view
    return path


def ids_view(sids: tuple[int, ...]) -> PathView:
    """The view of a path whose segments have the ids ``sids``.

    Sums over the table's per-id scalars: twice the one-way delays, and
    the jitter terms (:meth:`~repro.dataplane.link.PathSegment.jitter_term`:
    the scale grows with congested hops) left to right.
    """
    terms = LOSS_TABLE.jitter_term
    congestion_terms = 0.0
    for sid in sids:
        congestion_terms += terms[sid]
    return (
        sids,
        2.0 * sum(map(LOSS_TABLE.delay_ms.__getitem__, sids)),
        cal.JITTER_BASE_SCALE_MS * (1.0 + congestion_terms),
    )


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
        waypoints.append((entry.location, f"AS{asn}@{entry.city.name}", system.as_type))
        exit_point = system.nearest_presence(destination)
        if exit_point.city.name != entry.city.name:
            waypoints.append(
                (exit_point.location, f"AS{asn}@{exit_point.city.name}", system.as_type)
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
