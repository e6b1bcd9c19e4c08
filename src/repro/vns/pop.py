"""The eleven VNS Points of Presence.

The paper deploys "11 PoPs on four continents", clustered per region.
Figure 4 lets us pin some identities: PoP 10 is London; PoPs 3 and 5 are
on the US east coast; PoP 7 is in AP; PoP 9 in EU.  Figure 11 names the
ten PoPs used in the last-mile study: ATL, ASH, SJS / AMS, FRA, LON, OSL /
HK, SIN, SYD.  We complete the set with Tokyo (AP had 3 PoPs plus Sydney
in Oceania — four continents total).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.geo.cities import City, city_by_name
from repro.geo.coords import GeoPoint, nearest
from repro.geo.regions import PopRegion


@dataclass(frozen=True, slots=True)
class PoP:
    """One VNS Point of Presence.

    Parameters
    ----------
    pop_id:
        Numeric id matching Fig. 4's x-axis (1..11).
    code:
        Short code, e.g. ``"LON"``.
    city:
        Gazetteer city hosting the PoP.
    region:
        PoP region (EU / US / AP / OC).
    n_border_routers:
        Number of eBGP-speaking border routers ("over 20 routers in 11
        PoPs"): two at the major exchanges, one elsewhere.
    """

    pop_id: int
    code: str
    city: City
    region: PopRegion
    n_border_routers: int = 2

    @property
    def location(self) -> GeoPoint:
        return self.city.location

    def router_ids(self) -> list[str]:
        """Identifiers of this PoP's border routers."""
        return [f"{self.code}-r{i + 1}" for i in range(self.n_border_routers)]

    def __str__(self) -> str:
        return f"PoP{self.pop_id}:{self.code}"


def _pop(pop_id: int, code: str, city_name: str, region: PopRegion, routers: int) -> PoP:
    return PoP(
        pop_id=pop_id,
        code=code,
        city=city_by_name(city_name),
        region=region,
        n_border_routers=routers,
    )


#: The production footprint.  PoP ids satisfy the Fig. 4 constraints:
#: 3 and 5 are US east coast, 7 is AP, 9 is EU, 10 is London.
POPS: tuple[PoP, ...] = (
    _pop(1, "OSL", "Oslo", PopRegion.EU, 1),
    _pop(2, "AMS", "Amsterdam", PopRegion.EU, 2),
    _pop(3, "ATL", "Atlanta", PopRegion.NA, 2),
    _pop(4, "SJS", "San Jose", PopRegion.NA, 2),
    _pop(5, "ASH", "Ashburn", PopRegion.NA, 2),
    _pop(6, "SIN", "Singapore", PopRegion.AP, 2),
    _pop(7, "HK", "Hong Kong", PopRegion.AP, 2),
    _pop(8, "SYD", "Sydney", PopRegion.OC, 2),
    _pop(9, "FRA", "Frankfurt", PopRegion.EU, 2),
    _pop(10, "LON", "London", PopRegion.EU, 2),
    _pop(11, "TYO", "Tokyo", PopRegion.AP, 2),
)

_BY_CODE = {pop.code: pop for pop in POPS}


def pop_by_code(code: str) -> PoP:
    """Look up a PoP by short code (e.g. ``"AMS"``).

    Raises
    ------
    KeyError
        For an unknown code.
    """
    return _BY_CODE[code]


def pops_in_region(region: PopRegion) -> tuple[PoP, ...]:
    """All PoPs in one PoP region."""
    return tuple(pop for pop in POPS if pop.region is region)


def nearest_pop(location: GeoPoint, among: Iterable[PoP] | None = None) -> PoP:
    """The PoP geographically nearest to ``location``.

    ``among`` restricts the candidates (e.g. the PoPs still holding a
    session after a fault); default is the full footprint.  Anycast
    catchment and experiment code route through it; the scan is
    :func:`~repro.geo.coords.nearest` (the first PoP on a tie).

    Raises
    ------
    ValueError
        If ``among`` is given but empty.
    """
    candidates = POPS if among is None else tuple(among)
    return candidates[nearest((pop.location for pop in candidates), location)]
