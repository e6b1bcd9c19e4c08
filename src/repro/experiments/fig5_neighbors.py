"""Figure 5: transit vs peer routes before/after geo-routing (Sec. 4.2.2).

Outer plot: percentage of routes through each of the top-20 neighbours
(the first seven are upstreams, the rest peers).  Inner plot: the share
of prefixes reached through upstreams — which "remained stable at around
80% after the introduction of geo-based routing".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import World
from repro.vns.service import VideoNetworkService


@dataclass(slots=True)
class NeighborUsage:
    """One neighbour's share of routes."""

    rank: int
    asn: int
    is_upstream: bool
    before_pct: float
    after_pct: float


@dataclass(slots=True)
class Fig5Result:
    """Per-neighbour shares plus the transit-share inset."""

    neighbors: list[NeighborUsage] = field(default_factory=list)
    transit_share_before_pct: float = 0.0
    transit_share_after_pct: float = 0.0

    def upstream_rows(self) -> list[NeighborUsage]:
        return [row for row in self.neighbors if row.is_upstream]

    def peer_rows(self) -> list[NeighborUsage]:
        return [row for row in self.neighbors if not row.is_upstream]

    def top_upstream_shift(self) -> tuple[NeighborUsage, NeighborUsage] | None:
        """The two busiest upstreams (after), for the upstream-1-vs-2 story."""
        ranked = sorted(self.upstream_rows(), key=lambda row: -row.after_pct)
        if len(ranked) < 2:
            return None
        return ranked[0], ranked[1]


def _neighbor_counts(
    service: VideoNetworkService, entry_pop: str
) -> tuple[dict[int, int], int]:
    counts: dict[int, int] = {}
    total = 0
    for prefix in service.topology.prefixes():
        decision = service.egress_decision(entry_pop, prefix)
        if decision is None or decision.neighbor_asn == 0:
            continue
        counts[decision.neighbor_asn] = counts.get(decision.neighbor_asn, 0) + 1
        total += 1
    return counts, total


#: The PoP whose routes Fig. 5 counts, and how many neighbours it plots.
ENTRY_POP = "LON"
TOP_N = 20


def run(world: World) -> Fig5Result:
    """Count per-neighbour route shares in both deployments."""
    before_service = world.require_before()
    after_counts, after_total = _neighbor_counts(world.service, ENTRY_POP)
    before_counts, before_total = _neighbor_counts(before_service, ENTRY_POP)
    upstreams = world.service.deployment.upstreams
    upstream_set = set(upstreams)

    result = Fig5Result()
    if after_total == 0 or before_total == 0:
        return result

    transit_after = sum(after_counts.get(asn, 0) for asn in upstream_set)
    transit_before = sum(before_counts.get(asn, 0) for asn in upstream_set)
    result.transit_share_after_pct = 100.0 * transit_after / after_total
    result.transit_share_before_pct = 100.0 * transit_before / before_total

    # Paper ordering: the first seven neighbour ids are the upstreams, the
    # remaining slots the busiest peers.
    peer_order = sorted(
        (asn for asn in after_counts if asn not in upstream_set),
        key=lambda asn: (-after_counts[asn], asn),
    )
    ordered = list(upstreams) + peer_order
    for rank, asn in enumerate(ordered[:TOP_N], start=1):
        result.neighbors.append(
            NeighborUsage(
                rank=rank,
                asn=asn,
                is_upstream=asn in upstream_set,
                before_pct=100.0 * before_counts.get(asn, 0) / before_total,
                after_pct=100.0 * after_counts.get(asn, 0) / after_total,
            )
        )
    return result


def render(result: Fig5Result) -> str:
    """Fig. 5 as rows."""
    lines = ["Fig 5 — routes per neighbour (outer) and transit share (inset)"]
    lines.append("  rank  ASN     kind      before%   after%")
    for row in result.neighbors:
        kind = "upstream" if row.is_upstream else "peer"
        lines.append(
            f"  {row.rank:>4}  AS{row.asn:<5} {kind:<9} {row.before_pct:7.1f}"
            f"  {row.after_pct:7.1f}"
        )
    lines.append(
        f"  transit share: before {result.transit_share_before_pct:.1f}% / "
        f"after {result.transit_share_after_pct:.1f}%"
    )
    return "\n".join(lines)
