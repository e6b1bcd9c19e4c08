"""GeoIP error models.

Section 4.1 traces the two outlier clusters of Fig. 3 to concrete database
pathologies:

* *country-centroid collapse* — "Russian prefixes that are geo-located to a
  single geographic location in the center of Russia", which made them look
  closer to VNS's Asian PoPs than to its European ones; and
* *stale WHOIS after M&A* — "Indian prefixes [that] are geo-located in
  Canada" because the prefixes formerly belonged to a Canadian ISP bought
  by TATA.

Both are implemented here, alongside generic noise and missing-entry models,
as composable transformations over a :class:`~repro.geo.geoip.GeoIPDatabase`.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Sequence

import numpy as np

from repro.geo.cities import COUNTRY_CENTROIDS
from repro.geo.coords import destination_point
from repro.geo.geoip import GeoIPDatabase


class GeoIPErrorModel(abc.ABC):
    """A transformation that degrades a GeoIP database in place."""

    @abc.abstractmethod
    def apply(self, db: GeoIPDatabase, rng: np.random.Generator) -> list[Hashable]:
        """Degrade ``db``; return the list of prefixes that were affected."""


def _sample_fraction(
    prefixes: Sequence[Hashable], fraction: float, rng: np.random.Generator
) -> list[Hashable]:
    """Pick ``fraction`` of ``prefixes`` uniformly without replacement."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    count = int(round(fraction * len(prefixes)))
    if count == 0:
        return []
    idx = rng.choice(len(prefixes), size=count, replace=False)
    return [prefixes[i] for i in idx]


class CountryCentroidError(GeoIPErrorModel):
    """Collapse all of a country's prefixes onto its gazetteer centroid
    (the paper saw every Russian record collapsed)."""

    def __init__(self, country: str) -> None:
        if country not in COUNTRY_CENTROIDS:
            raise ValueError(f"no known centroid for {country!r}")
        self.country = country
        self.centroid = COUNTRY_CENTROIDS[country]

    def apply(self, db: GeoIPDatabase, rng: np.random.Generator) -> list[Hashable]:
        candidates = db.prefixes_in_country(self.country)
        affected = _sample_fraction(candidates, 1.0, rng)
        for prefix in affected:
            db.override(prefix, location=self.centroid)
        return affected


class StaleWhoisError(GeoIPErrorModel):
    """Relocate prefixes to a stale registrant country after an M&A.

    Models the paper's Indian-prefixes-in-Canada cluster: records whose
    *true* country is ``true_country`` all get reported at
    ``stale_country``'s gazetteer centroid.
    """

    def __init__(self, true_country: str, stale_country: str) -> None:
        if stale_country not in COUNTRY_CENTROIDS:
            raise ValueError(f"no known centroid for {stale_country!r}")
        self.true_country = true_country
        self.stale_country = stale_country
        self.stale_location = COUNTRY_CENTROIDS[stale_country]

    def apply(self, db: GeoIPDatabase, rng: np.random.Generator) -> list[Hashable]:
        candidates = db.prefixes_in_country(self.true_country)
        affected = _sample_fraction(candidates, 1.0, rng)
        for prefix in affected:
            db.override(prefix, location=self.stale_location, country=self.stale_country)
        return affected


class RandomNoiseError(GeoIPErrorModel):
    """Displace a fraction of records by a random offset.

    Offsets are drawn with an exponential distance distribution (mean
    ``mean_km``) in a uniformly random direction, matching the long-tailed
    error profile reported for commercial databases: most records land
    within ~100 km, a minority much farther away.
    """

    def __init__(self, mean_km: float = 50.0, fraction: float = 1.0) -> None:
        if mean_km < 0:
            raise ValueError(f"mean_km must be non-negative, got {mean_km!r}")
        self.mean_km = mean_km
        self.fraction = fraction

    def apply(self, db: GeoIPDatabase, rng: np.random.Generator) -> list[Hashable]:
        affected = _sample_fraction(db.prefixes(), self.fraction, rng)
        for prefix in affected:
            entry = db.lookup(prefix)
            assert entry is not None
            distance = float(rng.exponential(self.mean_km))
            bearing = float(rng.uniform(0.0, 360.0))
            db.override(
                prefix, location=destination_point(entry.location, bearing, distance)
            )
        return affected


def apply_error_models(
    db: GeoIPDatabase,
    models: Sequence[GeoIPErrorModel],
    rng: np.random.Generator,
) -> dict[str, list[Hashable]]:
    """Apply several error models in order; map model class name → affected."""
    report: dict[str, list[Hashable]] = {}
    for model in models:
        affected = model.apply(db, rng)
        report.setdefault(type(model).__name__, []).extend(affected)
    return report
