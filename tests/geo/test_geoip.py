"""Unit tests for the GeoIP database."""

import pytest

from repro.geo.coords import GeoPoint
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix


@pytest.fixture
def db() -> GeoIPDatabase:
    database = GeoIPDatabase()
    database.register(Prefix.parse("10.0.0.0/16"), GeoPoint(52.37, 4.90), "NL")
    database.register(Prefix.parse("10.1.0.0/16"), GeoPoint(1.35, 103.82), "SG")
    return database


class TestRegistration:
    def test_len(self, db):
        assert len(db) == 2

    def test_contains(self, db):
        assert Prefix.parse("10.0.0.0/16") in db
        assert Prefix.parse("10.9.0.0/16") not in db

    def test_duplicate_rejected(self, db):
        with pytest.raises(ValueError):
            db.register(Prefix.parse("10.0.0.0/16"), GeoPoint(0, 0), "XX")

    def test_lookup_returns_entry(self, db):
        entry = db.lookup(Prefix.parse("10.0.0.0/16"))
        assert entry is not None
        assert entry.country == "NL"
        assert entry.error_km == 0.0

    def test_lookup_miss_returns_none(self, db):
        assert db.lookup(Prefix.parse("10.9.0.0/16")) is None


class TestOverride:
    def test_override_moves_reported_location(self, db):
        prefix = Prefix.parse("10.0.0.0/16")
        db.override(prefix, location=GeoPoint(61.52, 105.32))
        entry = db.lookup(prefix)
        assert entry.error_km > 3000
        # Ground truth is untouched.
        assert entry.true_location == GeoPoint(52.37, 4.90)

    def test_override_country(self, db):
        prefix = Prefix.parse("10.0.0.0/16")
        db.override(prefix, country="RU")
        assert db.lookup(prefix).country == "RU"

    def test_override_unknown_raises(self, db):
        with pytest.raises(KeyError):
            db.override(Prefix.parse("10.9.0.0/16"), country="XX")


class TestQueries:
    def test_prefixes_in_country(self, db):
        assert db.prefixes_in_country("SG") == (Prefix.parse("10.1.0.0/16"),)

    def test_mean_error_starts_zero(self, db):
        assert db.mean_error_km() == 0.0

    def test_empty_database_stats(self):
        empty = GeoIPDatabase()
        assert empty.mean_error_km() == 0.0
