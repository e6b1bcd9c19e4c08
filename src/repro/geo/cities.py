"""A small city gazetteer used to place ASes, prefixes, hosts and PoPs.

Coordinates are approximate city centres; ``weight`` is a relative Internet-
population weight used when sampling locations for synthetic ASes and users.
The gazetteer deliberately concentrates weight in the three regions the
paper's evaluation probes (EU, NA, AP) while still covering all seven world
regions so the Fig. 7 anycast-catchment experiment has traffic sources
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.geo.coords import GeoPoint, nearest
from repro.geo.regions import POP_REGION_FOR_WORLD_REGION, PopRegion, WorldRegion


@dataclass(frozen=True, slots=True)
class City:
    """A gazetteer entry.

    Parameters
    ----------
    name:
        Unique city name (used as a key throughout the package).
    country:
        ISO-like country code.
    location:
        City-centre coordinates.
    region:
        The world region the city belongs to.
    weight:
        Relative weight for sampling synthetic network presence.
    """

    name: str
    country: str
    location: GeoPoint
    region: WorldRegion
    weight: float = 1.0

    @property
    def pop_region(self) -> PopRegion:
        """PoP region that geographically serves this city."""
        return POP_REGION_FOR_WORLD_REGION[self.region]


def _c(
    name: str,
    country: str,
    lat: float,
    lon: float,
    region: WorldRegion,
    weight: float = 1.0,
) -> City:
    return City(name=name, country=country, location=GeoPoint(lat, lon), region=region, weight=weight)


_EU = WorldRegion.EUROPE
_NA = WorldRegion.NORTH_CENTRAL_AMERICA
_AP = WorldRegion.ASIA_PACIFIC
_OC = WorldRegion.OCEANIA
_ME = WorldRegion.MIDDLE_EAST
_AF = WorldRegion.AFRICA
_SA = WorldRegion.SOUTH_AMERICA

#: The gazetteer.  The first eleven entries are the VNS PoP cities.
CITIES: tuple[City, ...] = (
    # --- VNS PoP cities -------------------------------------------------
    _c("Oslo", "NO", 59.91, 10.75, _EU, 1.0),
    _c("Amsterdam", "NL", 52.37, 4.90, _EU, 3.0),
    _c("Frankfurt", "DE", 50.11, 8.68, _EU, 3.0),
    _c("London", "GB", 51.51, -0.13, _EU, 4.0),
    _c("Atlanta", "US", 33.75, -84.39, _NA, 2.0),
    _c("Ashburn", "US", 39.04, -77.49, _NA, 3.0),
    _c("San Jose", "US", 37.34, -121.89, _NA, 3.0),
    _c("Hong Kong", "HK", 22.32, 114.17, _AP, 3.0),
    _c("Singapore", "SG", 1.35, 103.82, _AP, 3.0),
    _c("Tokyo", "JP", 35.68, 139.69, _AP, 4.0),
    _c("Sydney", "AU", -33.87, 151.21, _OC, 2.0),
    # --- Europe ---------------------------------------------------------
    _c("Paris", "FR", 48.86, 2.35, _EU, 3.0),
    _c("Madrid", "ES", 40.42, -3.70, _EU, 2.0),
    _c("Rome", "IT", 41.90, 12.50, _EU, 2.0),
    _c("Stockholm", "SE", 59.33, 18.07, _EU, 1.5),
    _c("Copenhagen", "DK", 55.68, 12.57, _EU, 1.0),
    _c("Warsaw", "PL", 52.23, 21.01, _EU, 1.5),
    _c("Vienna", "AT", 48.21, 16.37, _EU, 1.0),
    _c("Zurich", "CH", 47.37, 8.54, _EU, 1.0),
    _c("Dublin", "IE", 53.35, -6.26, _EU, 1.0),
    _c("Brussels", "BE", 50.85, 4.35, _EU, 1.0),
    _c("Lisbon", "PT", 38.72, -9.14, _EU, 1.0),
    _c("Athens", "GR", 37.98, 23.73, _EU, 1.0),
    _c("Prague", "CZ", 50.08, 14.44, _EU, 1.0),
    _c("Helsinki", "FI", 60.17, 24.94, _EU, 1.0),
    _c("Moscow", "RU", 55.76, 37.62, _EU, 2.0),
    _c("Saint Petersburg", "RU", 59.93, 30.34, _EU, 1.0),
    _c("Kyiv", "UA", 50.45, 30.52, _EU, 1.0),
    _c("Bucharest", "RO", 44.43, 26.10, _EU, 1.0),
    _c("Istanbul", "TR", 41.01, 28.98, _EU, 1.5),
    # --- North and Central America ---------------------------------------
    _c("New York", "US", 40.71, -74.01, _NA, 4.0),
    _c("Chicago", "US", 41.88, -87.63, _NA, 3.0),
    _c("Dallas", "US", 32.78, -96.80, _NA, 2.0),
    _c("Los Angeles", "US", 34.05, -118.24, _NA, 3.0),
    _c("Seattle", "US", 47.61, -122.33, _NA, 2.0),
    _c("Miami", "US", 25.76, -80.19, _NA, 2.0),
    _c("Denver", "US", 39.74, -104.99, _NA, 1.5),
    _c("Boston", "US", 42.36, -71.06, _NA, 1.5),
    _c("Toronto", "CA", 43.65, -79.38, _NA, 2.0),
    _c("Montreal", "CA", 45.50, -73.57, _NA, 1.5),
    _c("Vancouver", "CA", 49.28, -123.12, _NA, 1.0),
    _c("Mexico City", "MX", 19.43, -99.13, _NA, 2.0),
    _c("Panama City", "PA", 8.98, -79.52, _NA, 0.5),
    # --- Asia Pacific -----------------------------------------------------
    _c("Seoul", "KR", 37.57, 126.98, _AP, 3.0),
    _c("Osaka", "JP", 34.69, 135.50, _AP, 2.0),
    _c("Taipei", "TW", 25.03, 121.57, _AP, 2.0),
    _c("Shanghai", "CN", 31.23, 121.47, _AP, 3.0),
    _c("Beijing", "CN", 39.90, 116.41, _AP, 3.0),
    _c("Shenzhen", "CN", 22.55, 114.06, _AP, 2.0),
    _c("Mumbai", "IN", 19.08, 72.88, _AP, 3.0),
    _c("Delhi", "IN", 28.61, 77.21, _AP, 2.5),
    _c("Chennai", "IN", 13.08, 80.27, _AP, 1.5),
    _c("Bangalore", "IN", 12.97, 77.59, _AP, 2.0),
    _c("Bangkok", "TH", 13.76, 100.50, _AP, 2.0),
    _c("Jakarta", "ID", -6.21, 106.85, _AP, 2.0),
    _c("Manila", "PH", 14.60, 120.98, _AP, 2.0),
    _c("Kuala Lumpur", "MY", 3.14, 101.69, _AP, 1.5),
    _c("Hanoi", "VN", 21.03, 105.85, _AP, 1.0),
    # --- Oceania ---------------------------------------------------------
    _c("Melbourne", "AU", -37.81, 144.96, _OC, 1.5),
    _c("Brisbane", "AU", -27.47, 153.03, _OC, 1.0),
    _c("Perth", "AU", -31.95, 115.86, _OC, 0.8),
    _c("Auckland", "NZ", -36.85, 174.76, _OC, 1.0),
    _c("Wellington", "NZ", -41.29, 174.78, _OC, 0.5),
    # --- Middle East -------------------------------------------------------
    _c("Dubai", "AE", 25.20, 55.27, _ME, 1.5),
    _c("Tel Aviv", "IL", 32.09, 34.78, _ME, 1.0),
    _c("Riyadh", "SA", 24.71, 46.68, _ME, 1.0),
    _c("Doha", "QA", 25.29, 51.53, _ME, 0.5),
    _c("Amman", "JO", 31.95, 35.93, _ME, 0.5),
    # --- Africa ------------------------------------------------------------
    _c("Johannesburg", "ZA", -26.20, 28.05, _AF, 1.5),
    _c("Cape Town", "ZA", -33.92, 18.42, _AF, 1.0),
    _c("Cairo", "EG", 30.04, 31.24, _AF, 1.5),
    _c("Lagos", "NG", 6.52, 3.38, _AF, 1.5),
    _c("Nairobi", "KE", -1.29, 36.82, _AF, 1.0),
    _c("Casablanca", "MA", 33.57, -7.59, _AF, 0.5),
    # --- South America -------------------------------------------------------
    _c("Sao Paulo", "BR", -23.55, -46.63, _SA, 2.5),
    _c("Rio de Janeiro", "BR", -22.91, -43.17, _SA, 1.5),
    _c("Buenos Aires", "AR", -34.60, -58.38, _SA, 1.5),
    _c("Santiago", "CL", -33.45, -70.67, _SA, 1.0),
    _c("Bogota", "CO", 4.71, -74.07, _SA, 1.0),
    _c("Lima", "PE", -12.05, -77.04, _SA, 1.0),
)

_BY_NAME: dict[str, City] = {city.name: city for city in CITIES}

#: Geographic centre-of-country points used by the country-centroid GeoIP
#: error model (the paper's "Russian prefixes geo-located to a single
#: geographic location in the center of Russia").
COUNTRY_CENTROIDS: dict[str, GeoPoint] = {
    "RU": GeoPoint(61.52, 105.32),  # centre of Russia, far into Siberia
    "US": GeoPoint(39.83, -98.58),
    "CN": GeoPoint(35.86, 104.20),
    "IN": GeoPoint(20.59, 78.96),
    "AU": GeoPoint(-25.27, 133.78),
    "CA": GeoPoint(56.13, -106.35),
    "BR": GeoPoint(-14.24, -51.93),
}


def city_by_name(name: str) -> City:
    """Look up a city by its unique name.

    Raises
    ------
    KeyError
        If the gazetteer has no city with that name.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown city {name!r}") from None


@lru_cache(maxsize=None)
def nearest_city(point: GeoPoint) -> City:
    """The gazetteer city closest to ``point`` (coarse reverse geocoding).

    Memoised: the function is pure, ``GeoPoint`` is frozen/hashable, and
    real workloads reverse-geocode the same prefix/PoP/city locations
    millions of times — the linear gazetteer scan
    (:func:`~repro.geo.coords.nearest`) was the campaign engine's single
    hottest call before caching.
    """
    return CITIES[nearest((city.location for city in CITIES), point)]


def region_of_point(point: GeoPoint) -> WorldRegion:
    """The world region of the gazetteer city closest to ``point``."""
    return nearest_city(point).region
