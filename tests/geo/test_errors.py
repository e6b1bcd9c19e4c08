"""Unit tests for GeoIP error models."""

import numpy as np
import pytest

from repro.geo.coords import GeoPoint
from repro.geo.errors import (
    CountryCentroidError,
    RandomNoiseError,
    StaleWhoisError,
    apply_error_models,
)
from repro.geo.geoip import GeoIPDatabase
from repro.net.addressing import Prefix


def make_db(n_ru: int = 5, n_in: int = 5, n_other: int = 10) -> GeoIPDatabase:
    db = GeoIPDatabase()
    base = 0
    for i in range(n_ru):
        db.register(Prefix(network=base + (i << 12), length=20), GeoPoint(55.76, 37.62), "RU")
    base = 1 << 24
    for i in range(n_in):
        db.register(Prefix(network=base + (i << 12), length=20), GeoPoint(19.08, 72.88), "IN")
    base = 2 << 24
    for i in range(n_other):
        db.register(Prefix(network=base + (i << 12), length=20), GeoPoint(52.37, 4.90), "NL")
    return db


class TestCountryCentroid:
    def test_all_ru_collapsed(self):
        db = make_db()
        affected = CountryCentroidError("RU").apply(db, np.random.default_rng(0))
        assert len(affected) == 5
        for prefix in affected:
            entry = db.lookup(prefix)
            assert entry.location == GeoPoint(61.52, 105.32)
            assert entry.error_km > 3000

    def test_fraction(self):
        # The whole country collapses, whatever its size.
        db = make_db(n_ru=10)
        russian = set(db.prefixes_in_country("RU"))
        affected = CountryCentroidError("RU").apply(db, np.random.default_rng(0))
        assert len(affected) == 10 and set(affected) == russian

    def test_unknown_country_needs_centroid(self):
        with pytest.raises(ValueError):
            CountryCentroidError("ZZ")

class TestStaleWhois:
    def test_indian_prefixes_move_to_canada(self):
        db = make_db()
        affected = StaleWhoisError("IN", "CA").apply(db, np.random.default_rng(0))
        assert len(affected) == 5
        for prefix in affected:
            entry = db.lookup(prefix)
            assert entry.country == "CA"
            assert entry.location == GeoPoint(56.13, -106.35)

    def test_true_country_untouched_elsewhere(self):
        db = make_db()
        StaleWhoisError("IN", "CA").apply(db, np.random.default_rng(0))
        assert len(db.prefixes_in_country("NL")) == 10


class TestRandomNoise:
    def test_displaces_fraction(self):
        db = make_db()
        affected = RandomNoiseError(mean_km=50.0, fraction=0.5).apply(
            db, np.random.default_rng(0)
        )
        assert len(affected) == 10
        displaced = [db.lookup(p).error_km for p in affected]
        assert all(err >= 0 for err in displaced)
        assert any(err > 1.0 for err in displaced)

    def test_mean_magnitude(self):
        db = make_db(n_ru=0, n_in=0, n_other=400)
        RandomNoiseError(mean_km=50.0, fraction=1.0).apply(db, np.random.default_rng(0))
        assert db.mean_error_km() == pytest.approx(50.0, rel=0.25)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            RandomNoiseError(mean_km=-1.0)


class TestComposition:
    def test_apply_error_models_report(self):
        db = make_db()
        report = apply_error_models(
            db,
            [CountryCentroidError("RU"), StaleWhoisError("IN", "CA")],
            np.random.default_rng(0),
        )
        assert len(report["CountryCentroidError"]) == 5
        assert len(report["StaleWhoisError"]) == 5

    def test_invalid_fraction(self):
        db = make_db()
        with pytest.raises(ValueError):
            RandomNoiseError(fraction=1.5).apply(db, np.random.default_rng(0))
