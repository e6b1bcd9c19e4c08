"""Spherical geodesy primitives.

The paper computes "the shortest distance between two points that lie on a
surface of a sphere, often referred to as the great-circle distance" between
an egress router's known location and a prefix's GeoIP location.  We use the
haversine formulation, which is numerically stable for the small distances
that matter most for egress tie-breaking.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

#: Mean Earth radius in kilometres (IUGG).
EARTH_RADIUS_KM = 6371.0088

#: The largest haversine term :func:`great_circle_km` turns into an angle
#: with ``asin``: below it ``asin(sqrt(h))`` is within 1e-9 km; above it
#: (points within ~13 km of antipodal) the distance takes the atan2 form.
_ASIN_EXACT_UP_TO = 1.0 - 1e-6


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the Earth's surface.

    Parameters
    ----------
    lat:
        Latitude in decimal degrees, in ``[-90, 90]``.
    lon:
        Longitude in decimal degrees, in ``[-180, 180]``.
    """

    lat: float
    lon: float
    #: value hash, precomputed once — points key several hot memo caches,
    #: and the generated dataclass hash was itself showing up on profiles.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon!r} outside [-180, 180]")
        object.__setattr__(self, "_hash", hash((self.lat, self.lon)))

    def __hash__(self) -> int:
        return self._hash

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return great_circle_km(self, other)

    def __str__(self) -> str:
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.4f}{ns},{abs(self.lon):.4f}{ew}"


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (haversine) distance between two points, in km.

    This is the distance metric the modified route reflector uses to rank
    candidate egress PoPs for a destination prefix.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    cos_product = math.cos(lat1) * math.cos(lat2)
    h = math.sin(dlat / 2.0) ** 2 + cos_product * math.sin(dlon / 2.0) ** 2
    if h <= _ASIN_EXACT_UP_TO:
        return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))
    # Near the antipode h rounds towards 1 and asin(sqrt(h)) loses up to
    # ~1e-5 km.  1 - h is the haversine term towards b's antipode, a sum
    # of squares that keeps its precision, and the angle is their atan2.
    h_antipode = math.sin((lat1 + lat2) / 2.0) ** 2 + cos_product * math.cos(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(h), math.sqrt(h_antipode))


def nearest(points: Iterable[GeoPoint], target: GeoPoint) -> int:
    """Index of the point of ``points`` nearest to ``target`` (the first
    such point on a tie).

    The one nearest-point scan: the nearest gazetteer city, an AS's
    nearest presence point and the nearest PoP are all this scan over
    different sets.  It compares the haversine term of
    :func:`great_circle_km` (monotone in distance) instead of the
    distance, skipping the square root and arcsine per candidate.

    Raises
    ------
    ValueError
        If ``points`` is empty.
    """
    lat2 = math.radians(target.lat)
    cos_lat2 = math.cos(lat2)
    best, best_h = -1, math.inf
    for index, point in enumerate(points):
        lat1 = math.radians(point.lat)
        dlat = lat2 - lat1
        dlon = math.radians(target.lon - point.lon)
        h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * cos_lat2 * math.sin(dlon / 2.0) ** 2
        if h < best_h:
            best, best_h = index, h
    if best < 0:
        raise ValueError("nearest needs at least one point")
    return best


def destination_point(origin: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """The point ``distance_km`` away from ``origin`` along ``bearing_deg``.

    Used to jitter synthetic host and prefix locations around a city centre
    so that a city's prefixes are not all co-located.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km!r}")
    ang = distance_km / EARTH_RADIUS_KM
    brg = math.radians(bearing_deg)
    lat1 = math.radians(origin.lat)
    lon1 = math.radians(origin.lon)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(ang) + math.cos(lat1) * math.sin(ang) * math.cos(brg)
    )
    lon2 = lon1 + math.atan2(
        math.sin(brg) * math.sin(ang) * math.cos(lat1),
        math.cos(ang) - math.sin(lat1) * math.sin(lat2),
    )
    # Normalise longitude to [-180, 180].
    lon_deg = (math.degrees(lon2) + 540.0) % 360.0 - 180.0
    return GeoPoint(lat=math.degrees(lat2), lon=lon_deg)
