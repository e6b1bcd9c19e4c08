"""The VNS L2 topology: regional meshes plus long-haul interconnects.

"PoPs in the same geographical region are meshed forming a local cluster.
These clusters are interconnected via long-haul L2-links.  The termination
points of the inter-cluster links are chosen carefully to avoid having a
sub-optimal routing inside VNS."  Singapore has "direct dedicated links to
Australia, USA and Europe" (Sec. 4.3), which is why it shows the best
delay profile in Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.calibration import FIBER_MS_PER_KM, VNS_PATH_INFLATION
from repro.geo.coords import great_circle_km
from repro.igp.graph import IgpGraph
from repro.vns.pop import POPS, PoP, pop_by_code, pops_in_region
from repro.geo.regions import PopRegion


@dataclass(frozen=True, slots=True)
class L2Link:
    """A guaranteed-bandwidth layer-2 circuit between two PoPs."""

    a: str  # PoP code
    b: str  # PoP code
    long_haul: bool

    def distance_km(self) -> float:
        return great_circle_km(pop_by_code(self.a).location, pop_by_code(self.b).location)

    def delay_ms(self) -> float:
        """One-way propagation delay of the circuit."""
        return self.distance_km() * FIBER_MS_PER_KM * VNS_PATH_INFLATION

    def __str__(self) -> str:
        marker = "==" if self.long_haul else "--"
        return f"{self.a}{marker}{self.b}"


#: IGP metric per millisecond of circuit delay (metrics floor at 1).
IGP_METRIC_PER_MS = 10.0

#: IGP metric of the metro link joining two border routers in one PoP.
INTRA_POP_METRIC = 1.0

#: The inter-cluster long-haul circuits.
VNS_LONG_HAUL_LINKS: tuple[tuple[str, str], ...] = (
    ("LON", "ASH"),  # trans-Atlantic
    ("AMS", "SIN"),  # Europe - Asia
    ("SJS", "HK"),   # trans-Pacific
    ("SJS", "TYO"),  # trans-Pacific
    ("SIN", "SJS"),  # Singapore's direct link to the USA
    ("SIN", "SYD"),  # Singapore's direct link to Australia
)


def l2_links() -> list[L2Link]:
    """All circuits: per-region full meshes + the long-haul set."""
    links: list[L2Link] = []
    for region in PopRegion:
        pops = pops_in_region(region)
        for i, a in enumerate(pops):
            for b in pops[i + 1 :]:
                links.append(L2Link(a=a.code, b=b.code, long_haul=False))
    for a, b in VNS_LONG_HAUL_LINKS:
        links.append(L2Link(a=a, b=b, long_haul=True))
    return links


def build_l2_topology(
    *,
    excluded_links: frozenset[frozenset[str]] = frozenset(),
    excluded_pops: frozenset[str] = frozenset(),
    require_connected: bool = True,
) -> tuple[IgpGraph, list[L2Link]]:
    """The PoP-level IGP graph with delay-proportional metrics.

    Metrics are ``delay_ms * IGP_METRIC_PER_MS`` (floored at 1) so SPF
    inside VNS tracks propagation delay, as a latency-tuned IGP would.

    ``excluded_links`` (endpoint-code pairs) and ``excluded_pops`` support
    fault injection: down circuits/PoPs are left out of the graph, and
    ``require_connected`` must then be off (a fault may partition VNS —
    SPF treats the far side as unreachable rather than erroring).

    Returns the graph and the *full* link list (exclusions still appear in
    the list; they are operational state, not topology).

    Raises
    ------
    RuntimeError
        If ``require_connected`` and the resulting graph is partitioned.
    """
    graph = IgpGraph()
    for pop in POPS:
        if pop.code not in excluded_pops:
            graph.add_node(pop.code)
    links = l2_links()
    for link in links:
        if frozenset((link.a, link.b)) in excluded_links:
            continue
        if link.a in excluded_pops or link.b in excluded_pops:
            continue
        metric = max(1.0, link.delay_ms() * IGP_METRIC_PER_MS)
        graph.add_link(link.a, link.b, metric)
    if require_connected and not graph.is_connected():
        raise RuntimeError("VNS L2 topology is not connected")
    return graph, links


def router_level_igp(
    pop_graph: IgpGraph,
    *,
    require_connected: bool = True,
) -> IgpGraph:
    """Expand the PoP-level graph to border-router granularity.

    Routers within a PoP are joined by a cheap metro link
    (:data:`INTRA_POP_METRIC`); inter-PoP circuits connect the first
    router of each PoP (a simplification: real deployments terminate
    circuits on specific boxes, which is also why the paper can pick
    circuit termination points "carefully").  PoPs absent from
    ``pop_graph`` (failed) contribute no routers.

    Raises
    ------
    RuntimeError
        If ``require_connected`` and the resulting graph is partitioned.
    """
    graph = IgpGraph()
    for pop in POPS:
        if pop.code not in pop_graph:
            continue
        ids = pop.router_ids()
        for router_id in ids:
            graph.add_node(router_id)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                graph.add_link(a, b, INTRA_POP_METRIC)
    for pop in POPS:
        if pop.code not in pop_graph:
            continue
        for other_code, metric in pop_graph.neighbors(pop.code).items():
            if pop.code < other_code:
                a = pop.router_ids()[0]
                b = pop_by_code(other_code).router_ids()[0]
                graph.add_link(a, b, metric)
    if require_connected and not graph.is_connected():
        raise RuntimeError("router-level IGP graph is not connected")
    return graph
