"""The internal (IGP) topology of one AS."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class IgpLink:
    """A bidirectional internal link between two nodes.

    Parameters
    ----------
    a, b:
        Node identifiers (router or PoP ids).
    metric:
        IGP cost, symmetric.  VNS derives metrics from link latency so SPF
        matches propagation delay ordering.
    """

    a: str
    b: str
    metric: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"self-loop on {self.a!r}")
        if self.metric <= 0:
            raise ValueError(f"IGP metric must be positive, got {self.metric!r}")


class IgpGraph:
    """A weighted undirected graph of one AS's interior."""

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, float]] = {}

    def add_node(self, node: str) -> None:
        """Register a node with no links yet (idempotent)."""
        self._adj.setdefault(node, {})

    def add_link(self, a: str, b: str, metric: float) -> None:
        """Add a bidirectional link.

        Raises
        ------
        ValueError
            On self-loops, non-positive metrics, or duplicate links.
        """
        link = IgpLink(a=a, b=b, metric=metric)  # validates
        self.add_node(a)
        self.add_node(b)
        if b in self._adj[a]:
            raise ValueError(f"link {a!r}-{b!r} already exists")
        self._adj[a][b] = link.metric
        self._adj[b][a] = link.metric

    def __contains__(self, node: str) -> bool:
        return node in self._adj

    def nodes(self) -> list[str]:
        return list(self._adj)

    def neighbors(self, node: str) -> dict[str, float]:
        """Adjacent nodes with link metrics.

        Raises
        ------
        KeyError
            For an unknown node.
        """
        return dict(self._adj[node])

    def metric(self, a: str, b: str) -> float:
        """The metric of the direct link a-b.

        Raises
        ------
        KeyError
            If no such link exists.
        """
        return self._adj[a][b]

    def is_connected(self) -> bool:
        """Whether every node can reach every other node."""
        if not self._adj:
            return True
        start = next(iter(self._adj))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self._adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(self._adj)
