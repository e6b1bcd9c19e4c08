"""A geo-distributed user population sampled from the synthetic Internet.

The paper's measurement campaign rides on *production* conferencing
traffic — calls placed by a worldwide user base whose geography follows
Internet population.  This module supplies that base for campaign-scale
experiments: users are sampled from the topology's originated prefixes
(whose true locations the generator knows and the GeoIP database
reports), with configurable per-region weights, deterministically under
a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geo.cities import region_of_point
from repro.geo.coords import GeoPoint
from repro.geo.regions import WorldRegion
from repro.net.addressing import Prefix
from repro.net.topology import InternetTopology

#: Default share of users per world region, loosely following Internet
#: population (the paper's Fig. 7 request mix is dominated by AP, EU and
#: NA, with a visible Oceania/ME/SA/Africa tail).
DEFAULT_REGION_WEIGHTS: dict[WorldRegion, float] = {
    WorldRegion.ASIA_PACIFIC: 0.34,
    WorldRegion.EUROPE: 0.24,
    WorldRegion.NORTH_CENTRAL_AMERICA: 0.22,
    WorldRegion.SOUTH_AMERICA: 0.07,
    WorldRegion.MIDDLE_EAST: 0.05,
    WorldRegion.AFRICA: 0.04,
    WorldRegion.OCEANIA: 0.04,
}


@dataclass(frozen=True, slots=True)
class User:
    """One conferencing user, pinned to an originated prefix.

    The user's ``location`` is the prefix's true location — campaigns
    resolve and cache paths at prefix granularity, so per-user jitter
    inside a /20 would add noise without adding information.
    """

    user_id: int
    prefix: Prefix
    asn: int
    location: GeoPoint
    region: WorldRegion


@dataclass(slots=True)
class UserPopulation:
    """A sampled user base, deterministic under its seed."""

    seed: int
    users: list[User] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def users_in_region(self, region: WorldRegion) -> list[User]:
        """All users whose prefix region is ``region``."""
        return [user for user in self.users if user.region is region]

    def by_region(self) -> dict[WorldRegion, int]:
        """User counts per world region (only regions with users)."""
        counts: dict[WorldRegion, int] = {}
        for user in self.users:
            counts[user.region] = counts.get(user.region, 0) + 1
        return counts

    def prefixes(self) -> set[Prefix]:
        """The distinct prefixes the population occupies."""
        return {user.prefix for user in self.users}

    @classmethod
    def sample(
        cls,
        topology: InternetTopology,
        n_users: int,
        *,
        seed: int = 0,
    ) -> "UserPopulation":
        """Sample ``n_users`` users from the topology's prefixes.

        Regions are drawn according to :data:`DEFAULT_REGION_WEIGHTS`,
        restricted to regions the topology actually covers and
        renormalised; the prefix within a region is uniform.  The same
        ``(topology, n_users, seed)`` always yields the same population.

        Raises
        ------
        ValueError
            For a non-positive user count.
        """
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users!r}")

        by_region: dict[WorldRegion, list[Prefix]] = {}
        for prefix in topology.prefixes():
            region = region_of_point(topology.prefix_location[prefix])
            by_region.setdefault(region, []).append(prefix)

        # Every default weight is positive: each region with prefixes is drawn.
        covered = sorted(by_region, key=lambda region: region.value)  # deterministic order
        probs = np.array([DEFAULT_REGION_WEIGHTS[region] for region in covered], dtype=float)
        probs /= probs.sum()

        rng = np.random.default_rng(seed)
        region_draws = rng.choice(len(covered), size=n_users, p=probs)
        users: list[User] = []
        for user_id, draw in enumerate(region_draws):
            region = covered[int(draw)]
            pool = by_region[region]
            prefix = pool[int(rng.integers(0, len(pool)))]
            users.append(
                User(
                    user_id=user_id,
                    prefix=prefix,
                    asn=topology.origin_of[prefix],
                    location=topology.prefix_location[prefix],
                    region=region,
                )
            )
        return cls(seed=seed, users=users)
