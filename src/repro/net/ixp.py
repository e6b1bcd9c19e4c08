"""Internet exchange points.

VNS "peers openly with any other interested AS" and, "if a peer is present
with VNS at different IXPs, VNS always establishes peering at all sites if
possible" (Sec. 4.2.2).  IXPs are therefore the places where peering edges
and eBGP sessions are anchored geographically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo.cities import City


@dataclass(slots=True)
class IXP:
    """An Internet exchange point located in a city.

    Parameters
    ----------
    name:
        Unique IXP name, e.g. ``"AMS-IX"``.
    city:
        Where the exchange fabric lives.
    members:
        ASNs present at the exchange.
    """

    name: str
    city: City
    members: set[int] = field(default_factory=set)

    def add_member(self, asn: int) -> None:
        """Register an AS at the exchange (idempotent)."""
        self.members.add(asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self.members

    def __str__(self) -> str:
        return f"{self.name} ({self.city.name})"


#: IXP names for the gazetteer cities that host major exchanges.
WELL_KNOWN_IXPS: dict[str, str] = {
    "Amsterdam": "AMS-IX",
    "Frankfurt": "DE-CIX",
    "London": "LINX",
    "Ashburn": "Equinix-ASH",
    "San Jose": "Equinix-SV",
    "Atlanta": "TIE-ATL",
    "Hong Kong": "HKIX",
    "Singapore": "SGIX",
    "Tokyo": "JPIX",
    "Sydney": "IX-AU",
    "Oslo": "NIX",
    "New York": "NYIIX",
    "Paris": "France-IX",
    "Seattle": "SIX",
    "Sao Paulo": "IX.br",
    "Johannesburg": "NAPAfrica",
    "Dubai": "UAE-IX",
}


def ixp_for_city(city: City) -> IXP:
    """Create the (empty) IXP for a city, using its well-known name if any."""
    name = WELL_KNOWN_IXPS.get(city.name, f"IX-{city.name.replace(' ', '')}")
    return IXP(name=name, city=city)
