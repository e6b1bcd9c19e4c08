"""Geodesy, world regions, cities, and the synthetic GeoIP database.

The geo-based routing in the paper rests on two geographic primitives: the
great-circle distance between an egress PoP and a destination prefix, and a
GeoIP database that maps prefixes to coordinates.  This subpackage provides
both, plus the region taxonomy the paper uses (seven world regions for users,
four PoP regions for VNS) and the GeoIP error classes that produce the
outlier clusters in Fig. 3.
"""

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    GeoPoint,
    destination_point,
    great_circle_km,
)
from repro.geo.regions import (
    POP_REGION_FOR_WORLD_REGION,
    REGION_UTC_OFFSET_HOURS,
    PopRegion,
    WorldRegion,
)
from repro.geo.cities import (
    CITIES,
    City,
    city_by_name,
    nearest_city,
    region_of_point,
)
from repro.geo.geoip import GeoIPDatabase, GeoIPEntry
from repro.geo.errors import (
    CountryCentroidError,
    GeoIPErrorModel,
    RandomNoiseError,
    StaleWhoisError,
    apply_error_models,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "great_circle_km",
    "destination_point",
    "PopRegion",
    "WorldRegion",
    "POP_REGION_FOR_WORLD_REGION",
    "REGION_UTC_OFFSET_HOURS",
    "City",
    "CITIES",
    "city_by_name",
    "nearest_city",
    "region_of_point",
    "GeoIPDatabase",
    "GeoIPEntry",
    "GeoIPErrorModel",
    "CountryCentroidError",
    "StaleWhoisError",
    "RandomNoiseError",
    "apply_error_models",
]
