"""A synthetic GeoIP database in the style of MaxMind GeoIP.

The paper's route reflector queries "a GeoIP database that resides on the
same server" for the location of every destination prefix.  We model the
database as an explicit mapping from prefix to :class:`GeoIPEntry`.  The
*true* location of each prefix is known to the topology generator; the
database stores what the (imperfect) commercial product would report, so
error models (:mod:`repro.geo.errors`) can be layered on top to reproduce
the Fig. 3 outlier clusters.

Keys are intentionally generic: any hashable prefix object works, which
keeps this module free of a dependency on :mod:`repro.net`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass, replace

from repro.geo.coords import GeoPoint


@dataclass(frozen=True, slots=True)
class GeoIPEntry:
    """One database record.

    Parameters
    ----------
    location:
        The coordinates the database reports for the prefix.
    country:
        The country code the database reports.
    true_location:
        Ground truth, kept for evaluation only — real databases obviously
        do not carry this field.  Error models perturb ``location`` and
        ``country`` but never ``true_location``.
    """

    location: GeoPoint
    country: str
    true_location: GeoPoint

    @property
    def error_km(self) -> float:
        """Distance between the reported and the true location."""
        return self.location.distance_km(self.true_location)


class GeoIPDatabase:
    """Prefix-to-location mapping with evaluation-friendly ground truth.

    The database starts out perfect (reported location == true location);
    apply error models from :mod:`repro.geo.errors` to degrade it the way a
    commercial database is degraded.
    """

    def __init__(self) -> None:
        self._entries: dict[Hashable, GeoIPEntry] = {}
        #: Bumped on every mutation; consumers caching lookup results
        #: (e.g. the geo reflector's LOCAL_PREF memo) compare against it
        #: to detect staleness without subscribing to individual records.
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Hashable) -> bool:
        return prefix in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def register(self, prefix: Hashable, location: GeoPoint, country: str) -> None:
        """Add a prefix with a perfect (ground-truth) record.

        Raises
        ------
        ValueError
            If the prefix is already registered; use :meth:`override` to
            change an existing record.
        """
        if prefix in self._entries:
            raise ValueError(f"prefix {prefix!r} already registered")
        self._entries[prefix] = GeoIPEntry(
            location=location, country=country, true_location=location
        )
        self.version += 1

    def lookup(self, prefix: Hashable) -> GeoIPEntry | None:
        """The database record for ``prefix``, or ``None`` if unmapped.

        An unmapped prefix models a database miss; the route reflector
        falls back to default BGP behaviour for such prefixes.
        """
        return self._entries.get(prefix)

    def reported_location(self, prefix: Hashable) -> GeoPoint | None:
        """Convenience accessor for the reported coordinates."""
        entry = self._entries.get(prefix)
        return None if entry is None else entry.location

    def true_location(self, prefix: Hashable) -> GeoPoint | None:
        """Ground-truth coordinates (evaluation only)."""
        entry = self._entries.get(prefix)
        return None if entry is None else entry.true_location

    def override(
        self,
        prefix: Hashable,
        *,
        location: GeoPoint | None = None,
        country: str | None = None,
    ) -> None:
        """Perturb an existing record (used by error models).

        Raises
        ------
        KeyError
            If the prefix is not registered.
        """
        entry = self._entries[prefix]
        if location is not None:
            entry = replace(entry, location=location)
        if country is not None:
            entry = replace(entry, country=country)
        self._entries[prefix] = entry
        self.version += 1

    def prefixes(self) -> tuple[Hashable, ...]:
        """All registered prefixes, in insertion order."""
        return tuple(self._entries)

    def prefixes_in_country(self, country: str) -> tuple[Hashable, ...]:
        """Prefixes whose *reported* country matches ``country``."""
        return tuple(p for p, e in self._entries.items() if e.country == country)

    def entries(self) -> Iterable[tuple[Hashable, GeoIPEntry]]:
        """Iterate ``(prefix, entry)`` pairs."""
        return self._entries.items()

    def mean_error_km(self) -> float:
        """Average reported-vs-true distance over all records.

        Returns 0.0 for an empty database.
        """
        if not self._entries:
            return 0.0
        return sum(e.error_km for e in self._entries.values()) / len(self._entries)
