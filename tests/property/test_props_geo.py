"""Property-based tests for geodesy invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    GeoPoint,
    destination_point,
    great_circle_km,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, lat=latitudes, lon=longitudes)
distances = st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False)
bearings = st.floats(min_value=0.0, max_value=360.0, allow_nan=False)


class TestMetricProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert great_circle_km(a, b) == great_circle_km(b, a)

    @given(points)
    def test_identity(self, a):
        assert great_circle_km(a, a) == 0.0

    @given(points, points)
    def test_non_negative_and_bounded(self, a, b):
        distance = great_circle_km(a, b)
        assert 0.0 <= distance <= math.pi * EARTH_RADIUS_KM + 1e-6

    @given(points, points, points)
    @settings(max_examples=200)
    # Near-antipodal a, c: the asin form's h rounds to 1 and ac came out
    # 6.6e-6 km longer than ab + bc.
    @example(GeoPoint(0.0, 180.0), GeoPoint(0.0, -1.0), GeoPoint(0.0, -5.960464477539063e-08))
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_km(a, b)
        bc = great_circle_km(b, c)
        ac = great_circle_km(a, c)
        assert ac <= ab + bc + 1e-6


class TestDestinationProperties:
    @given(points, bearings, distances)
    @settings(max_examples=200)
    def test_travelled_distance(self, origin, bearing, distance):
        out = destination_point(origin, bearing, distance)
        # Near the antipode the travelled distance wraps; measure against
        # the wrapped equivalent.
        measured = great_circle_km(origin, out)
        half = math.pi * EARTH_RADIUS_KM
        expected = distance if distance <= half else 2 * half - distance
        assert measured == min(measured, half + 1e-6)
        assert abs(measured - expected) < max(1.0, 0.01 * expected)

    @given(points, bearings, distances)
    def test_output_in_valid_range(self, origin, bearing, distance):
        out = destination_point(origin, bearing, distance)
        assert -90.0 <= out.lat <= 90.0
        assert -180.0 <= out.lon <= 180.0
