"""The Internet substrate: addressing, ASes, and synthetic topology.

VNS is evaluated against "the Internet" — transit providers, peers, and the
last mile.  This subpackage provides that substrate: IPv4 addresses and
CIDR prefixes, Autonomous Systems typed per the Dhamdhere-Dovrolis taxonomy
the paper adopts (LTP / STP / CAHP / EC), customer-provider and peering
relationships, Internet exchange points, and a generator that synthesises
a geographically embedded AS-level Internet.
"""

from repro.net.addressing import IPv4Address, Prefix
from repro.net.asn import ASType, AutonomousSystem
from repro.net.relationships import ASGraph, Relationship
from repro.net.ixp import IXP
from repro.net.topology import InternetTopology, TopologyConfig, generate_topology

__all__ = [
    "IPv4Address",
    "Prefix",
    "ASType",
    "AutonomousSystem",
    "Relationship",
    "ASGraph",
    "IXP",
    "InternetTopology",
    "TopologyConfig",
    "generate_topology",
]
