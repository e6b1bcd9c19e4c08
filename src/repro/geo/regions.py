"""Region taxonomy used throughout the paper's evaluation.

Two granularities appear in the paper:

* Section 4.4 / Fig. 7 divides the *world* into seven user regions:
  Oceania, Asia Pacific, Middle East, Africa, Europe, North and Central
  America, and South America.
* VNS *PoPs* fall into four regions: EU, US (NA), AP, and Oceania (OC).

Diurnal congestion profiles (Sec. 5.2.3 / Fig. 12) are expressed in CET; we
therefore also record a representative UTC offset per world region so that
"peak hours in region B" can be translated into the CET hour axis the paper
plots.
"""

from __future__ import annotations

import enum


class WorldRegion(enum.Enum):
    """The seven user regions of Sec. 4.4."""

    # Identity hashing for singleton members: C-level, unlike Enum's
    # Python ``__hash__``, which dominated region-keyed table lookups on
    # campaign profiles.
    __hash__ = object.__hash__

    OCEANIA = "Oceania"
    ASIA_PACIFIC = "Asia Pacific"
    MIDDLE_EAST = "Middle East"
    AFRICA = "Africa"
    EUROPE = "Europe"
    NORTH_CENTRAL_AMERICA = "North and Central America"
    SOUTH_AMERICA = "South America"

    def __str__(self) -> str:
        return self.value


#: Short region codes for report keys ("AP->EU") and figure labels.
REGION_CODE: dict[WorldRegion, str] = {
    WorldRegion.OCEANIA: "OC",
    WorldRegion.ASIA_PACIFIC: "AP",
    WorldRegion.MIDDLE_EAST: "ME",
    WorldRegion.AFRICA: "AF",
    WorldRegion.EUROPE: "EU",
    WorldRegion.NORTH_CENTRAL_AMERICA: "NA",
    WorldRegion.SOUTH_AMERICA: "SA",
}


class PopRegion(enum.Enum):
    """The four VNS PoP regions of Sec. 4.4."""

    __hash__ = object.__hash__  # identity hashing — see WorldRegion

    EU = "EU"
    NA = "US"
    AP = "AP"
    OC = "OC"

    def __str__(self) -> str:
        return self.value


#: Which PoP region geographically serves each world region.  This is the
#: "traffic follows geography" expectation behind Fig. 7: requests from a
#: world region should predominantly land on the PoP region listed here.
POP_REGION_FOR_WORLD_REGION: dict[WorldRegion, PopRegion] = {
    WorldRegion.OCEANIA: PopRegion.OC,
    WorldRegion.ASIA_PACIFIC: PopRegion.AP,
    WorldRegion.MIDDLE_EAST: PopRegion.EU,
    WorldRegion.AFRICA: PopRegion.EU,
    WorldRegion.EUROPE: PopRegion.EU,
    WorldRegion.NORTH_CENTRAL_AMERICA: PopRegion.NA,
    WorldRegion.SOUTH_AMERICA: PopRegion.NA,
}

#: Representative standard-time UTC offsets (hours) per world region, used to
#: convert local business/evening hours into the CET axis of Fig. 12.
REGION_UTC_OFFSET_HOURS: dict[WorldRegion, int] = {
    WorldRegion.OCEANIA: 10,
    WorldRegion.ASIA_PACIFIC: 8,
    WorldRegion.MIDDLE_EAST: 3,
    WorldRegion.AFRICA: 2,
    WorldRegion.EUROPE: 1,
    WorldRegion.NORTH_CENTRAL_AMERICA: -6,
    WorldRegion.SOUTH_AMERICA: -4,
}

#: CET is UTC+1 (the paper reports all times in CET and the measurement ran
#: in November/December, i.e. outside daylight saving).
CET_UTC_OFFSET_HOURS = 1


def local_hour_to_cet(hour_local: float, region: WorldRegion) -> float:
    """Convert an hour-of-day in ``region``'s local time to CET.

    >>> local_hour_to_cet(9, WorldRegion.ASIA_PACIFIC)  # 9am in AP
    2.0
    """
    offset = REGION_UTC_OFFSET_HOURS[region]
    return (hour_local - offset + CET_UTC_OFFSET_HOURS) % 24.0


def cet_to_local_hour(hour_cet: float, region: WorldRegion) -> float:
    """Convert a CET hour-of-day to ``region``'s local time."""
    offset = REGION_UTC_OFFSET_HOURS[region]
    return (hour_cet - CET_UTC_OFFSET_HOURS + offset) % 24.0


#: World regions whose hosts the last-mile study (Sec. 5.2) probes, in the
#: order Fig. 11, Fig. 12 and Table 1 list them.  The paper selects 600
#: hosts in NA, EU and AP.
LAST_MILE_STUDY_REGIONS = (
    WorldRegion.ASIA_PACIFIC,
    WorldRegion.EUROPE,
    WorldRegion.NORTH_CENTRAL_AMERICA,
)
