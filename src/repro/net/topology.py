"""Synthetic AS-level Internet generator.

Builds a geographically embedded Internet in the spirit of the measured
topology the paper runs over: a Tier-1 clique of Large Transit Providers
with global footprints, regional Small Transit Providers, Content/Access/
Hosting Providers, and Enterprise Customer stubs, wired with Gao-Rexford
customer-provider and peering edges and originating prefixes whose true
locations are known (so a GeoIP database — perfect or degraded — can be
derived from ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.cities import CITIES, City
from repro.geo.coords import GeoPoint, destination_point
from repro.geo.geoip import GeoIPDatabase
from repro.geo.regions import WorldRegion
from repro.net.addressing import IPv4Address, Prefix
from repro.net.asn import ASType, AutonomousSystem, PresencePoint
from repro.net.ixp import IXP, ixp_for_city
from repro.net.radix import RadixTree
from repro.net.relationships import ASGraph


#: (min, max) prefixes originated per AS, by type.
PREFIXES_PER_AS: dict[ASType, tuple[int, int]] = {
    ASType.LTP: (6, 14),
    ASType.STP: (3, 8),
    ASType.CAHP: (2, 6),
    ASType.EC: (1, 2),
}

#: (min, max) providers per AS, by type (LTPs form a clique instead).
PROVIDERS_PER_AS: dict[ASType, tuple[int, int]] = {
    ASType.STP: (2, 4),
    ASType.CAHP: (2, 3),
    ASType.EC: (1, 3),
}

#: (min, max) presence points per AS, by type.
PRESENCE_PER_AS: dict[ASType, tuple[int, int]] = {
    ASType.LTP: (8, 14),
    ASType.STP: (2, 5),
    ASType.CAHP: (1, 3),
    ASType.EC: (1, 1),
}

#: Probability that two same-region transit/CAHP ASes present at a common
#: IXP establish peering.
REGIONAL_PEERING_PROB = 0.12

#: Fraction of STPs with one extra remote (trans-regional) presence point,
#: modelling e.g. Asian providers hauling their own traffic to US west
#: coast exchanges (Sec. 4.1 & 5.2.2).
STP_REMOTE_PRESENCE_PROB = 0.25

#: Mean jitter applied to prefix locations around their anchor city (km).
PREFIX_JITTER_MEAN_KM = 40.0

#: First /16 block index used by the address allocator (1 => 0.1.0.0/16
#: is skipped; we start at 16 to stay clear of special-use space).
FIRST_BLOCK = 16 * 256  # 16.0.0.0


@dataclass(slots=True)
class TopologyConfig:
    """How many ASes of each type :func:`generate_topology` creates.

    The defaults produce a "medium" Internet (a few hundred ASes) suitable
    for benchmarks; tests shrink the counts.
    """

    n_ltp: int = 8
    n_stp: int = 60
    n_cahp: int = 120
    n_ec: int = 160

    def total_ases(self) -> int:
        """Total number of ASes the config will generate."""
        return self.n_ltp + self.n_stp + self.n_cahp + self.n_ec


class PrefixAllocator:
    """Sequentially carves /20 prefixes out of the unicast space."""

    def __init__(self) -> None:
        # Each block is a /20: 4096 of them per /8.
        self._next = FIRST_BLOCK << 4

    def allocate(self, length: int = 20) -> Prefix:
        """Allocate the next free prefix of the given length (>= /20)."""
        if length < 20:
            raise ValueError("allocator hands out /20 or longer prefixes")
        network = self._next << 12
        if network > 0xFFFFFFFF:
            raise RuntimeError("prefix space exhausted")
        self._next += 1
        base = Prefix(network=network, length=20)
        if length == 20:
            return base
        return base.subnets(length)[0]


@dataclass(slots=True)
class InternetTopology:
    """The generated Internet: ASes, relationships, prefixes, IXPs."""

    ases: dict[int, AutonomousSystem]
    graph: ASGraph
    clique: tuple[int, ...]
    origin_of: dict[Prefix, int]
    prefix_location: dict[Prefix, GeoPoint]
    prefix_country: dict[Prefix, str]
    ixps: dict[str, IXP]
    fib: RadixTree

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        """Look up an AS by number.

        Raises
        ------
        KeyError
            For an unknown ASN.
        """
        return self.ases[asn]

    def ases_of_type(self, as_type: ASType) -> list[AutonomousSystem]:
        """All ASes of a given Dhamdhere-Dovrolis type."""
        return [a for a in self.ases.values() if a.as_type is as_type]

    def ases_in_region(self, region: WorldRegion) -> list[AutonomousSystem]:
        """All ASes whose home city lies in ``region``."""
        return [a for a in self.ases.values() if a.home.city.region is region]

    def prefixes(self) -> list[Prefix]:
        """Every originated prefix."""
        return list(self.origin_of)

    def origin_as(self, prefix: Prefix) -> AutonomousSystem:
        """The AS originating ``prefix``.

        Raises
        ------
        KeyError
            For a prefix no AS originates.
        """
        return self.ases[self.origin_of[prefix]]

    def resolve_address(self, address: IPv4Address) -> tuple[Prefix, int] | None:
        """Longest-prefix match an address to ``(prefix, origin ASN)``."""
        hit = self.fib.longest_match(address)
        if hit is None:
            return None
        prefix, asn = hit
        return prefix, asn

    def build_geoip(self) -> GeoIPDatabase:
        """A perfect GeoIP database derived from prefix ground truth."""
        db = GeoIPDatabase()
        for prefix, location in self.prefix_location.items():
            db.register(prefix, location, self.prefix_country[prefix])
        return db

    def host_location(
        self, prefix: Prefix, rng: np.random.Generator, jitter_km: float = 15.0
    ) -> GeoPoint:
        """A host location near the prefix's true location."""
        anchor = self.prefix_location[prefix]
        distance = float(rng.exponential(jitter_km))
        bearing = float(rng.uniform(0.0, 360.0))
        return destination_point(anchor, bearing, distance)

    def host_address(self, prefix: Prefix, rng: np.random.Generator) -> IPv4Address:
        """A random host address inside ``prefix`` (not the network address)."""
        span = prefix.num_addresses
        offset = int(rng.integers(1, span)) if span > 1 else 0
        return prefix.address_at(offset)


def _weighted_city_choice(
    cities: list[City], rng: np.random.Generator, size: int = 1, replace: bool = False
) -> list[City]:
    weights = np.array([c.weight for c in cities], dtype=float)
    weights /= weights.sum()
    if not replace:
        size = min(size, len(cities))
    idx = rng.choice(len(cities), size=size, replace=replace, p=weights)
    return [cities[int(i)] for i in np.atleast_1d(idx)]


def _presence_points(
    home: City, count: int, rng: np.random.Generator, pool: list[City]
) -> list[PresencePoint]:
    """Presence points: the home city plus ``count - 1`` others from ``pool``."""
    points = [PresencePoint(city=home, location=home.location)]
    others = [c for c in pool if c.name != home.name]
    if count > 1 and others:
        for city in _weighted_city_choice(others, rng, size=count - 1):
            points.append(PresencePoint(city=city, location=city.location))
    return points


def _sample_count(bounds: tuple[int, int], rng: np.random.Generator) -> int:
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"invalid bounds {bounds!r}")
    return int(rng.integers(lo, hi + 1))


def generate_topology(
    config: TopologyConfig | None = None,
    rng: np.random.Generator | None = None,
) -> InternetTopology:
    """Generate a synthetic Internet.

    The construction is deterministic given ``rng``'s state.  All generated
    ASes can reach the Tier-1 clique over provider edges (asserted at the
    end), so valley-free routing reaches every prefix from everywhere.
    """
    if config is None:
        config = TopologyConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    all_cities = list(CITIES)
    by_region: dict[WorldRegion, list[City]] = {}
    for city in all_cities:
        by_region.setdefault(city.region, []).append(city)
    regions = list(by_region)

    def home_for(index: int) -> City:
        """Home city for the ``index``-th AS of a type.

        The first ASes of each type cycle through the world regions so
        every region is guaranteed coverage by every type (the paper's
        host sample needs all four types in AP, EU and NA); the rest are
        weighted by Internet population.
        """
        if index < len(regions):
            return _weighted_city_choice(by_region[regions[index]], rng)[0]
        return _weighted_city_choice(all_cities, rng)[0]

    graph = ASGraph()
    ases: dict[int, AutonomousSystem] = {}
    allocator = PrefixAllocator()
    origin_of: dict[Prefix, int] = {}
    prefix_location: dict[Prefix, GeoPoint] = {}
    prefix_country: dict[Prefix, str] = {}

    next_asn = 100

    def make_as(as_type: ASType, home: City, presence_pool: list[City]) -> AutonomousSystem:
        nonlocal next_asn
        asn = next_asn
        next_asn += 1
        count = _sample_count(PRESENCE_PER_AS[as_type], rng)
        presence = _presence_points(home, count, rng, presence_pool)
        system = AutonomousSystem(
            asn=asn,
            name=f"{as_type}-{asn} ({home.name})",
            as_type=as_type,
            home=presence[0],
            presence=presence,
        )
        ases[asn] = system
        graph.add_as(asn)
        n_prefixes = _sample_count(PREFIXES_PER_AS[as_type], rng)
        for _ in range(n_prefixes):
            prefix = allocator.allocate()
            anchor_point = presence[int(rng.integers(0, len(presence)))]
            distance = float(rng.exponential(PREFIX_JITTER_MEAN_KM))
            bearing = float(rng.uniform(0.0, 360.0))
            location = destination_point(anchor_point.location, bearing, distance)
            system.prefixes.append(prefix)
            origin_of[prefix] = asn
            prefix_location[prefix] = location
            prefix_country[prefix] = anchor_point.city.country
        return system

    # ---- Tier-1 clique (LTPs) ------------------------------------------
    # Tier-1s are present at essentially every major exchange hub; their
    # presence starts from the high-weight cities (each included with high
    # probability) and is padded with random additional metros.
    hub_cities = [c for c in all_cities if c.weight >= 3.0]
    ltps: list[AutonomousSystem] = []
    for index in range(config.n_ltp):
        home = _weighted_city_choice(all_cities, rng)[0]
        system = make_as(ASType.LTP, home, all_cities)
        have = {point.city.name for point in system.presence}
        for hub in hub_cities:
            if hub.name not in have and rng.random() < 0.8:
                system.presence.append(PresencePoint(city=hub, location=hub.location))
                have.add(hub.name)
        ltps.append(system)
    for i, a in enumerate(ltps):
        for b in ltps[i + 1 :]:
            graph.add_peering(a.asn, b.asn)

    # ---- Regional small transit providers (STPs) ------------------------
    stps: list[AutonomousSystem] = []
    for index in range(config.n_stp):
        home = home_for(index)
        pool = list(by_region[home.region])
        if rng.random() < STP_REMOTE_PRESENCE_PROB:
            remote_pool = [c for c in all_cities if c.region is not home.region]
            pool = pool + _weighted_city_choice(remote_pool, rng, size=1)
        system = make_as(ASType.STP, home, pool)
        stps.append(system)
        n_providers = _sample_count(PROVIDERS_PER_AS[ASType.STP], rng)
        for provider in rng.choice(len(ltps), size=min(n_providers, len(ltps)), replace=False):
            graph.add_provider_customer(ltps[int(provider)].asn, system.asn)

    # ---- Content / access / hosting providers (CAHPs) --------------------
    cahps: list[AutonomousSystem] = []
    for index in range(config.n_cahp):
        home = home_for(index)
        system = make_as(ASType.CAHP, home, list(by_region[home.region]))
        cahps.append(system)
        candidates = [s for s in stps if s.home.city.region is home.region] or stps
        providers: list[int] = []
        n_providers = _sample_count(PROVIDERS_PER_AS[ASType.CAHP], rng)
        # First provider preferentially a regional STP; the rest regional
        # STPs or global Tier-1s (edge networks do not buy transit from
        # small providers on other continents).
        if candidates:
            providers.append(candidates[int(rng.integers(0, len(candidates)))].asn)
        while len(providers) < n_providers:
            pool = ltps + candidates
            choice = pool[int(rng.integers(0, len(pool)))].asn
            if choice not in providers:
                providers.append(choice)
        for provider_asn in providers:
            graph.add_provider_customer(provider_asn, system.asn)

    # ---- Enterprise customers (ECs) --------------------------------------
    for index in range(config.n_ec):
        home = home_for(index)
        system = make_as(ASType.EC, home, [home])
        candidates = [s for s in stps if s.home.city.region is home.region] or stps
        n_providers = _sample_count(PROVIDERS_PER_AS[ASType.EC], rng)
        providers = set()
        for _attempt in range(8 * n_providers):
            if len(providers) >= n_providers:
                break
            pool = candidates if rng.random() < 0.8 else ltps
            providers.add(pool[int(rng.integers(0, len(pool)))].asn)
        for provider_asn in providers:
            graph.add_provider_customer(provider_asn, system.asn)

    # ---- IXPs and regional peering ---------------------------------------
    ixps: dict[str, IXP] = {}
    for city in all_cities:
        ixp = ixp_for_city(city)
        ixps[ixp.name] = ixp
    city_to_ixp = {ixp.city.name: ixp for ixp in ixps.values()}
    for system in ases.values():
        join_prob = {
            ASType.LTP: 1.0,
            ASType.STP: 0.9,
            ASType.CAHP: 0.5,
            ASType.EC: 0.05,
        }[system.as_type]
        for point in system.presence:
            if rng.random() < join_prob:
                city_to_ixp[point.city.name].add_member(system.asn)

    peer_candidates = stps + cahps
    for i, a in enumerate(peer_candidates):
        for b in peer_candidates[i + 1 :]:
            if a.home.city.region is not b.home.city.region:
                continue
            shared_ixp = any(
                a.asn in ixp.members and b.asn in ixp.members for ixp in ixps.values()
            )
            if not shared_ixp:
                continue
            if b.asn in graph.neighbors(a.asn):
                continue
            if rng.random() < REGIONAL_PEERING_PROB:
                graph.add_peering(a.asn, b.asn)

    # ---- FIB and validation ----------------------------------------------
    fib: RadixTree = RadixTree()
    for prefix, asn in origin_of.items():
        fib.insert(prefix, asn)

    clique = tuple(system.asn for system in ltps)
    for asn in graph.asns():
        if not graph.has_provider_path_to_clique(asn, clique):
            raise RuntimeError(f"generated AS{asn} cannot reach the Tier-1 clique")

    return InternetTopology(
        ases=ases,
        graph=graph,
        clique=clique,
        origin_of=origin_of,
        prefix_location=prefix_location,
        prefix_country=prefix_country,
        ixps=ixps,
        fib=fib,
    )
