"""Figure 4: egress PoP selection before/after geo-routing (Sec. 4.2.1).

"Figure 4 shows the percentage of routes that exit at each PoP before and
after the introduction of geo-based routing from the perspective of
PoP 10 (London). [...] Before [...] PoP 10 exited traffic locally in 70%
of the cases.  After [...] the distribution is more even."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import World
from repro.vns.pop import POPS, pop_by_code
from repro.vns.service import VideoNetworkService


@dataclass(slots=True)
class Fig4Result:
    """Percentage of routes exiting at each PoP id, before and after."""

    entry_pop: str
    before_pct: dict[int, float] = field(default_factory=dict)
    after_pct: dict[int, float] = field(default_factory=dict)
    routes_counted: int = 0

    def local_exit_pct(self, when: str) -> float:
        """Percent exiting at the entry PoP itself.

        Raises
        ------
        ValueError
            For ``when`` other than "before"/"after".
        """
        if when not in ("before", "after"):
            raise ValueError(f"when must be 'before' or 'after', got {when!r}")
        table = self.before_pct if when == "before" else self.after_pct
        local_id = pop_by_code(self.entry_pop).pop_id
        return table.get(local_id, 0.0)

    def max_share_pct(self, when: str) -> float:
        """The largest single-PoP share."""
        table = self.before_pct if when == "before" else self.after_pct
        return max(table.values()) if table else 0.0


def _egress_distribution(
    service: VideoNetworkService, entry_pop: str
) -> tuple[dict[int, float], int]:
    counts: dict[int, int] = {}
    total = 0
    for prefix in service.topology.prefixes():
        decision = service.egress_decision(entry_pop, prefix)
        if decision is None:
            continue
        pop_id = pop_by_code(decision.egress_pop).pop_id
        counts[pop_id] = counts.get(pop_id, 0) + 1
        total += 1
    if total == 0:
        return {}, 0
    return {pop_id: 100.0 * count / total for pop_id, count in counts.items()}, total


#: The PoP whose egress choices Fig. 4 plots.
ENTRY_POP = "LON"


def run(world: World) -> Fig4Result:
    """Compute the Fig. 4 distributions on a world (builds the "before"
    deployment if it is not present yet)."""
    before = world.require_before()
    result = Fig4Result(entry_pop=ENTRY_POP)
    result.before_pct, count_before = _egress_distribution(before, ENTRY_POP)
    result.after_pct, count_after = _egress_distribution(world.service, ENTRY_POP)
    result.routes_counted = min(count_before, count_after)
    return result


def render(result: Fig4Result) -> str:
    """Fig. 4 as rows: one line per PoP id."""
    lines = [
        f"Fig 4 — egress distribution from {result.entry_pop} "
        f"({result.routes_counted} routes)"
    ]
    lines.append("  PoP  code   before%   after%")
    for pop in POPS:
        before = result.before_pct.get(pop.pop_id, 0.0)
        after = result.after_pct.get(pop.pop_id, 0.0)
        lines.append(
            f"  {pop.pop_id:>3}  {pop.code:>4}  {before:7.1f}  {after:7.1f}"
        )
    lines.append(
        f"  local exit: before {result.local_exit_pct('before'):.1f}% "
        f"/ after {result.local_exit_pct('after'):.1f}%"
    )
    return "\n".join(lines)
