"""Reproduction of "Geography Matters" (CoNEXT 2013).

This package implements, as a laptop-scale simulation, the Video Network
Service (VNS) described by Elmokashfi et al.: a network-layer overlay for
video conferencing that keeps traffic on well-provisioned dedicated links as
long as possible and hands it to the Internet at the PoP geographically
closest to the destination ("cold potato" routing), implemented through a
geo-aware BGP route reflector.

Subpackages
-----------
``repro.geo``
    Geodesy, world regions, city gazetteer, and a synthetic GeoIP database
    with the error classes the paper observed in MaxMind data.
``repro.net``
    IPv4 addresses and prefixes, Autonomous System entities, and a
    synthetic AS-level Internet topology generator.
``repro.bgp``
    A BGP-4 implementation: path attributes, the RFC 4271 decision process,
    Gao-Rexford policies, speakers with full RIBs, route reflection, the
    best-external feature, and an AS-level propagation engine.
``repro.igp``
    Intra-AS link-state shortest-path routing (feeds BGP hot-potato).
``repro.dataplane``
    Delay from geography, the calibrated per-segment loss regimes (spread /
    short-burst / long-burst / episodic access), diurnal utilisation
    profiles, and the scalar and columnar transmission simulators.
``repro.media``
    HD video codec profiles and the anycast TURN relays users enter VNS
    through.
``repro.vns``
    The paper's contribution: the overlay network of 11 PoPs, the geo-based
    route reflector, the management override interface, and anycast service
    addressing.
``repro.measurement``
    ICMP ping and back-to-back loss probes, schedulers, and statistics.
``repro.experiments``
    One module per paper figure/table; each returns the structured series
    that the corresponding plot shows.
"""

from repro.version import __version__

__all__ = ["WorldSpec", "__version__"]


def __getattr__(name: str) -> object:
    # Canonical re-export, resolved lazily so importing ``repro`` stays
    # cheap: ``repro.WorldSpec`` is the declarative scenarios world spec.
    if name == "WorldSpec":
        from repro.scenarios.spec import WorldSpec

        return WorldSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
