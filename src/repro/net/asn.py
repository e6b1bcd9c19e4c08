"""Autonomous Systems and the Dhamdhere-Dovrolis type taxonomy.

Section 5.2 groups last-mile hosts "into the four types of ASes; Large
Transit Provider (LTP), Small Transit Provider (STP), Content Access
Hosting Provider (CAHP), and Enterprise Customer (EC)".  The same taxonomy
drives the synthetic topology: the type determines an AS's size, its place
in the customer-provider hierarchy, and (in the data plane) how congested
its access links are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.geo.cities import City
from repro.geo.coords import GeoPoint, nearest
from repro.net.addressing import Prefix


class ASType(enum.Enum):
    """Dhamdhere-Dovrolis AS classes."""

    # Identity hashing: C-level, correct for singleton members, and far
    # cheaper than Enum's Python ``__hash__`` under the calibration-table
    # lookups the loss model performs per segment.
    __hash__ = object.__hash__

    LTP = "LTP"  #: Large Transit Provider (Tier-1-like, global footprint)
    STP = "STP"  #: Small Transit Provider (regional transit)
    CAHP = "CAHP"  #: Content/Access/Hosting Provider (serves residential users)
    EC = "EC"  #: Enterprise Customer (stub network)

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class PresencePoint:
    """One location where an AS has infrastructure (a provider PoP)."""

    city: City
    location: GeoPoint

    def __str__(self) -> str:
        return f"{self.city.name}"


@dataclass(slots=True)
class AutonomousSystem:
    """A synthetic AS.

    Parameters
    ----------
    asn:
        The AS number (unique).
    name:
        Human-readable label, e.g. ``"STP-1204 (Warsaw)"``.
    as_type:
        Dhamdhere-Dovrolis class.
    home:
        The AS's main presence point; stubs only have this one.
    presence:
        All presence points, ``home`` included.  Transit ASes have many.
        A tuple: a point is added only through :meth:`add_presence`,
        which drops the nearest-presence memo.
    prefixes:
        Prefixes this AS originates, with each prefix's true location.
    """

    asn: int
    name: str
    as_type: ASType
    home: PresencePoint
    presence: tuple[PresencePoint, ...] = ()
    prefixes: list[Prefix] = field(default_factory=list)
    #: target -> :meth:`nearest_presence`, this process's memo (never pickled).
    _nearest: dict[GeoPoint, PresencePoint] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive, got {self.asn!r}")
        self.presence = tuple(self.presence) or (self.home,)

    def __getstate__(self) -> tuple[None, dict]:
        # The default slot state, less the memo: a shipped world pickles
        # to the same bytes however many paths this process assembled.
        slots = self.__slots__
        return None, {name: getattr(self, name) for name in slots if name != "_nearest"}

    def __setstate__(self, state: tuple[None, dict]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._nearest = None

    def add_presence(self, point: PresencePoint) -> None:
        """Add ``point`` to :attr:`presence`: the only way it changes, so
        no memo of a nearest presence point outlives it."""
        self.presence = (*self.presence, point)
        self._nearest = None

    def nearest_presence(self, target: GeoPoint) -> PresencePoint:
        """The presence point geographically nearest to ``target``.

        Models hot-potato waypoint selection inside a transit AS when
        assembling data-plane paths.  Memoised in this AS's dict keyed
        by target (no key object per entry): path assembly asks the same
        transit ASes about the same prefix and PoP locations for every
        pair that crosses them.
        """
        memo = self._nearest
        if memo is None:
            memo = self._nearest = {}
        point = memo.get(target)
        if point is None:
            presence = self.presence
            point = memo[target] = presence[
                nearest((p.location for p in presence), target)
            ]
        return point

    def __str__(self) -> str:
        return f"AS{self.asn}({self.as_type}, {self.home.city.name})"

    def __hash__(self) -> int:
        return hash(self.asn)
