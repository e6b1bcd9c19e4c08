"""Shortest-path-first (Dijkstra) over an IGP graph."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.igp.graph import IgpGraph


@dataclass(slots=True)
class ShortestPaths:
    """SPF result from one source node.

    ``distance`` maps node → metric; ``previous`` maps node → predecessor
    on the shortest path (absent for the source and unreachable nodes).
    """

    source: str
    distance: dict[str, float] = field(default_factory=dict)
    previous: dict[str, str] = field(default_factory=dict)

    def metric_to(self, node: str) -> float:
        """Metric from the source to ``node`` (``inf`` if unreachable)."""
        return self.distance.get(node, float("inf"))

    def path_to(self, node: str) -> list[str] | None:
        """The node sequence source..node, or ``None`` if unreachable."""
        if node not in self.distance:
            return None
        path = [node]
        while path[-1] != self.source:
            path.append(self.previous[path[-1]])
        path.reverse()
        return path


def spf(graph: IgpGraph, source: str) -> ShortestPaths:
    """Dijkstra from ``source``; deterministic tie-breaking by node id.

    Raises
    ------
    KeyError
        If ``source`` is not in the graph.
    """
    if source not in graph:
        raise KeyError(f"unknown node {source!r}")
    result = ShortestPaths(source=source)
    result.distance[source] = 0.0
    heap: list[tuple[float, str]] = [(0.0, source)]
    done: set[str] = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nbr, metric in sorted(graph.neighbors(node).items()):
            candidate = dist + metric
            if candidate < result.distance.get(nbr, float("inf")) - 1e-12:
                result.distance[nbr] = candidate
                result.previous[nbr] = node
                heapq.heappush(heap, (candidate, nbr))
    return result


def all_pairs_spf(graph: IgpGraph) -> dict[str, ShortestPaths]:
    """SPF from every node (VNS has ~20 routers; this is cheap)."""
    return {node: spf(graph, node) for node in graph.nodes()}
