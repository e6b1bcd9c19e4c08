"""Unit tests for the gazetteer."""

import pytest

from repro.geo.cities import (
    CITIES,
    city_by_name,
    nearest_city,
    region_of_point,
)
from repro.geo.coords import GeoPoint
from repro.geo.regions import PopRegion, WorldRegion


class TestGazetteer:
    def test_unique_names(self):
        names = [city.name for city in CITIES]
        assert len(names) == len(set(names))

    def test_positive_weights(self):
        assert all(city.weight > 0 for city in CITIES)

    def test_every_world_region_covered(self):
        for region in WorldRegion:
            assert any(city.region is region for city in CITIES), f"no cities in {region}"

    def test_pop_cities_present(self):
        for name in (
            "Oslo",
            "Amsterdam",
            "Frankfurt",
            "London",
            "Atlanta",
            "Ashburn",
            "San Jose",
            "Hong Kong",
            "Singapore",
            "Tokyo",
            "Sydney",
        ):
            city_by_name(name)

    def test_unknown_city_raises(self):
        with pytest.raises(KeyError):
            city_by_name("Atlantis")

    def test_pop_region_mapping(self):
        assert city_by_name("Sydney").pop_region is PopRegion.OC
        assert city_by_name("London").pop_region is PopRegion.EU
        assert city_by_name("Tokyo").pop_region is PopRegion.AP


class TestReverseGeocoding:
    def test_exact_city_location(self):
        amsterdam = city_by_name("Amsterdam")
        assert nearest_city(amsterdam.location).name == "Amsterdam"

    def test_nearby_point(self):
        # A point 30 km from Amsterdam still maps to Amsterdam (nearest
        # other gazetteer city, Brussels, is ~170 km away).
        point = GeoPoint(52.1, 4.9)
        assert nearest_city(point).name == "Amsterdam"

    def test_region_of_point(self):
        assert region_of_point(GeoPoint(48.0, 11.0)) is WorldRegion.EUROPE
        assert region_of_point(GeoPoint(-30.0, 150.0)) is WorldRegion.OCEANIA
