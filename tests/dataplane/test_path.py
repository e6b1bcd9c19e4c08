"""Unit tests for path assembly."""

import pytest

from repro.dataplane.link import PathSegment, SegmentKind
from repro.dataplane.path import (
    DataPath,
    assemble_as_path_waypoints,
    internet_path,
)
from repro.geo.cities import city_by_name
from repro.net.asn import ASType

AMS = city_by_name("Amsterdam").location
SIN = city_by_name("Singapore").location


def distance_km(path: DataPath) -> float:
    return sum(segment.distance_km for segment in path.segments)


def access_segment() -> PathSegment:
    return PathSegment(kind=SegmentKind.ACCESS, start=AMS, end=AMS, label="direct")


class TestWaypoints:
    def test_waypoints_follow_presence(self, tiny_topology):
        ltp = tiny_topology.ases_of_type(ASType.LTP)[0]
        stub = tiny_topology.ases_of_type(ASType.EC)[0]
        destination = stub.home.location
        waypoints = assemble_as_path_waypoints(
            tiny_topology, (ltp.asn, stub.asn), AMS, destination
        )
        assert waypoints
        # Owner annotations present and of the right types.
        owners = [owner for _, _, owner in waypoints]
        assert ASType.LTP in owners

    def test_unknown_as_raises(self, tiny_topology):
        with pytest.raises(KeyError):
            assemble_as_path_waypoints(tiny_topology, (999999,), AMS, AMS)

    def test_empty_path_no_waypoints(self, tiny_topology):
        assert assemble_as_path_waypoints(tiny_topology, (), AMS, AMS) == []


class TestInternetPath:
    def _dest(self, tiny_topology):
        stub = tiny_topology.ases_of_type(ASType.EC)[0]
        prefix = stub.prefixes[0]
        return stub, prefix, tiny_topology.prefix_location[prefix]

    def test_final_access_segment(self, tiny_topology):
        stub, prefix, destination = self._dest(tiny_topology)
        ltp = tiny_topology.ases_of_type(ASType.LTP)[0]
        path = internet_path(
            tiny_topology,
            (ltp.asn, stub.asn),
            AMS,
            destination,
            destination_as_type=stub.as_type,
        )
        assert path.segments[-1].kind is SegmentKind.ACCESS
        assert path.segments[-1].as_type is stub.as_type

    def test_final_access_false(self, tiny_topology):
        stub, prefix, destination = self._dest(tiny_topology)
        ltp = tiny_topology.ases_of_type(ASType.LTP)[0]
        path = internet_path(
            tiny_topology, (ltp.asn,), AMS, destination, final_access=False
        )
        assert path.segments[-1].kind is SegmentKind.TRANSIT

    def test_first_segment_kind(self, tiny_topology):
        stub, prefix, destination = self._dest(tiny_topology)
        ltp = tiny_topology.ases_of_type(ASType.LTP)[0]
        path = internet_path(
            tiny_topology,
            (ltp.asn, stub.asn),
            AMS,
            destination,
            first_segment_kind=SegmentKind.ACCESS,
        )
        assert path.segments[0].kind is SegmentKind.ACCESS

    def test_rtt_is_double_one_way(self, tiny_topology):
        stub, prefix, destination = self._dest(tiny_topology)
        ltp = tiny_topology.ases_of_type(ASType.LTP)[0]
        path = internet_path(tiny_topology, (ltp.asn,), AMS, destination)
        assert path.rtt_ms() == 2.0 * sum(s.delay_ms() for s in path.segments)

    def test_longer_as_path_not_shorter_distance(self, tiny_topology):
        stub, prefix, destination = self._dest(tiny_topology)
        ltp = tiny_topology.ases_of_type(ASType.LTP)[0]
        direct = internet_path(tiny_topology, (stub.asn,), AMS, destination)
        via = internet_path(tiny_topology, (ltp.asn, stub.asn), AMS, destination)
        assert distance_km(via) >= distance_km(direct) - 1.0


class TestDataPath:
    def test_concat(self):
        a = DataPath(segments=[access_segment()], description="a")
        b = DataPath(segments=[access_segment()], description="b")
        combined = a.concat(b)
        assert len(combined) == 2
        assert "a" in combined.description and "b" in combined.description

    def test_iteration_and_len(self):
        path = DataPath(segments=[access_segment()], description="access")
        assert len(path) == 1
        assert list(path) == path.segments


class TestReversePath:
    @staticmethod
    def transit_path() -> DataPath:
        return DataPath(
            segments=[
                PathSegment(kind=SegmentKind.PEERING, start=AMS, end=AMS, label="in"),
                PathSegment(kind=SegmentKind.TRANSIT, start=AMS, end=SIN, label="haul"),
            ],
            description="fwd",
        )

    def test_segments_reversed(self):
        fwd = self.transit_path()
        rev = fwd.reversed()
        assert len(rev) == len(fwd)
        assert rev.segments[0].start == fwd.segments[-1].end
        assert rev.segments[-1].end == fwd.segments[0].start

    def test_delay_symmetric(self):
        fwd = self.transit_path()
        assert fwd.reversed().rtt_ms() == pytest.approx(fwd.rtt_ms())
