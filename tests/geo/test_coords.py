"""Unit tests for spherical geodesy."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    GeoPoint,
    destination_point,
    great_circle_km,
    nearest,
)

#: Points on a 1e-4 degree grid (~11 m).  Two distinct points may still be
#: the same distance away (both exactly 90 degrees off the target, say):
#: their ``great_circle_km`` values are then equal while their haversine
#: terms, which ``nearest`` ranks by, can differ in the last bit.
grid_points = st.builds(
    GeoPoint,
    lat=st.integers(-900_000, 900_000).map(lambda v: v / 10_000),
    lon=st.integers(-1_800_000, 1_800_000).map(lambda v: v / 10_000),
)


class TestGeoPoint:
    def test_valid_construction(self):
        point = GeoPoint(52.37, 4.90)
        assert point.lat == 52.37
        assert point.lon == 4.90

    @pytest.mark.parametrize("lat", [-90.0, 0.0, 90.0])
    def test_boundary_latitudes(self, lat):
        GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lat", [-90.01, 91.0, 180.0])
    def test_invalid_latitude(self, lat):
        with pytest.raises(ValueError):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-180.01, 181.0, 360.0])
    def test_invalid_longitude(self, lon):
        with pytest.raises(ValueError):
            GeoPoint(0.0, lon)

    def test_str_hemispheres(self):
        assert str(GeoPoint(10.0, -20.0)) == "10.0000N,20.0000W"
        assert str(GeoPoint(-10.0, 20.0)) == "10.0000S,20.0000E"


class TestGreatCircle:
    def test_zero_distance(self):
        point = GeoPoint(10.0, 20.0)
        assert great_circle_km(point, point) == 0.0

    def test_symmetry(self):
        a = GeoPoint(52.37, 4.90)
        b = GeoPoint(1.35, 103.82)
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))

    def test_known_distance_amsterdam_singapore(self):
        a = GeoPoint(52.37, 4.90)
        b = GeoPoint(1.35, 103.82)
        # Published distance is ~10,500 km.
        assert great_circle_km(a, b) == pytest.approx(10_500, rel=0.02)

    def test_quarter_circumference(self):
        equator = GeoPoint(0.0, 0.0)
        pole = GeoPoint(90.0, 0.0)
        expected = math.pi * EARTH_RADIUS_KM / 2
        assert great_circle_km(equator, pole) == pytest.approx(expected)

    def test_antipodal_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        expected = math.pi * EARTH_RADIUS_KM
        assert great_circle_km(a, b) == pytest.approx(expected)

    def test_dateline_wrap(self):
        west = GeoPoint(0.0, 179.5)
        east = GeoPoint(0.0, -179.5)
        assert great_circle_km(west, east) < 120.0


class TestNearest:
    @staticmethod
    def haversine_term(point: GeoPoint, target: GeoPoint) -> float:
        """What ``nearest`` ranks by, computed as it computes it."""
        lat1, lat2 = math.radians(point.lat), math.radians(target.lat)
        dlon = math.radians(target.lon - point.lon)
        return (
            math.sin((lat2 - lat1) / 2.0) ** 2
            + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
        )

    @given(
        st.lists(grid_points, min_size=1, max_size=12),
        st.lists(st.integers(0, 11), max_size=6),
        grid_points,
    )
    @example(
        points=[GeoPoint(90.0, 84.6387), GeoPoint(0.0, 89.9998)],
        copies=[],
        target=GeoPoint(0.0, -0.0002),
    )
    @settings(max_examples=300)
    def test_first_argmin_of_great_circle_km(self, points, copies, target):
        # Duplicates (copies of earlier points, appended) tie exactly.
        points = points + [points[i % len(points)] for i in copies]
        terms = [self.haversine_term(point, target) for point in points]
        pick = nearest(points, target)
        assert pick == terms.index(min(terms))
        # And the pick is nearest by distance, too (ties in km included).
        distances = [great_circle_km(point, target) for point in points]
        assert distances[pick] == min(distances)

    def test_tie_goes_to_the_first(self):
        east, west = GeoPoint(0.0, 10.0), GeoPoint(0.0, -10.0)
        assert nearest([east, west], GeoPoint(0.0, 0.0)) == 0
        assert nearest([west, east], GeoPoint(0.0, 0.0)) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest([], GeoPoint(0.0, 0.0))


class TestDestinationPoint:
    def test_zero_distance_is_identity(self):
        origin = GeoPoint(45.0, 45.0)
        result = destination_point(origin, 123.0, 0.0)
        assert result.lat == pytest.approx(origin.lat)
        assert result.lon == pytest.approx(origin.lon)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination_point(GeoPoint(0, 0), 0.0, -1.0)

    def test_round_trip_distance(self):
        origin = GeoPoint(52.37, 4.90)
        out = destination_point(origin, 70.0, 500.0)
        assert great_circle_km(origin, out) == pytest.approx(500.0, rel=1e-6)

    def test_longitude_normalised(self):
        # Travelling east across the dateline must stay in [-180, 180].
        origin = GeoPoint(0.0, 179.0)
        out = destination_point(origin, 90.0, 300.0)
        assert -180.0 <= out.lon <= 180.0
