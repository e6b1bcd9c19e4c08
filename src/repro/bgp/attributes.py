"""BGP path attributes (RFC 4271) and the route value type."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.net.addressing import Prefix

#: Default LOCAL_PREF; the paper's geo-assigned values are "always much
#: higher than the default value of 100".
DEFAULT_LOCAL_PREF = 100

#: The well-known ``no-export`` community (RFC 1997).  The management
#: interface tags statically advertised more-specifics with it "to ensure
#: that they never leak outside VNS network".
NO_EXPORT = "no-export"

#: Builds a tuple subclass from a full field tuple, without the generated
#: Python ``__new__``: the copy methods below pass every field.
_new = tuple.__new__


class Origin(enum.IntEnum):
    """ORIGIN attribute; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class Route(NamedTuple):
    """A route to a prefix, as stored in RIBs and carried in updates.

    Transmission attributes (``as_path``, ``next_hop``, ``origin``, ``med``,
    ``local_pref``, ``communities``, ``originator_id``, ``cluster_list``)
    travel on the wire; reception metadata (``learned_from``, ``ebgp``) is
    stamped by the receiving speaker and never transmitted.

    A tuple: the control plane builds one per import and per advertisement,
    so construction, field reads, equality and hashing all run in C.  It
    hashes like the tuple of its fields (as the frozen dataclass it
    replaced did), iterates over them and equals a plain tuple of them.
    """

    prefix: Prefix
    as_path: tuple[int, ...]  # flat (no AS_SETs needed here); head = neighbour
    next_hop: str
    origin: Origin = Origin.IGP
    med: int = 0
    local_pref: int = DEFAULT_LOCAL_PREF
    communities: frozenset[str] = frozenset()  # one shared empty set
    originator_id: str | None = None
    cluster_list: tuple[str, ...] = ()
    learned_from: str | None = None
    ebgp: bool = False

    @property
    def neighbor_as(self) -> int | None:
        """The neighbouring AS this route points at (the AS path's head)."""
        path = self.as_path
        return path[0] if path else None

    # The copies below run once per message during convergence, so they
    # build the tuple directly: no Python-level ``__new__`` frame.

    def with_communities(self, *extra: str) -> "Route":
        """A copy with additional communities — or ``self`` when all are present."""
        if self.communities.issuperset(extra):
            return self
        return _new(Route, (
            self.prefix, self.as_path, self.next_hop, self.origin, self.med,
            self.local_pref, self.communities.union(extra), self.originator_id,
            self.cluster_list, self.learned_from, self.ebgp,
        ))

    def with_local_pref(self, local_pref: int) -> "Route":
        """A copy with LOCAL_PREF replaced — or ``self`` when unchanged.

        The no-copy case matters: the geo reflector re-derives the same
        preference for every re-imported route (LOCAL_PREF travels on the
        iBGP wire), and this is its hot path.
        """
        if local_pref == self.local_pref:
            return self
        return _new(Route, (
            self.prefix, self.as_path, self.next_hop, self.origin, self.med,
            local_pref, self.communities, self.originator_id,
            self.cluster_list, self.learned_from, self.ebgp,
        ))

    def imported(
        self, local_pref: int, communities: frozenset[str], learned_from: str, ebgp: bool
    ) -> "Route":
        """The Adj-RIB-In form: LOCAL_PREF and communities as import decided
        them, stamped with reception metadata — the one copy an import makes."""
        return _new(Route, (
            self.prefix, self.as_path, self.next_hop, self.origin, self.med,
            local_pref, communities, self.originator_id,
            self.cluster_list, learned_from, ebgp,
        ))

    def received(self, learned_from: str, ebgp: bool) -> "Route":
        """A copy stamped with reception metadata."""
        return _new(Route, (
            self.prefix, self.as_path, self.next_hop, self.origin, self.med,
            self.local_pref, self.communities, self.originator_id,
            self.cluster_list, learned_from, ebgp,
        ))

    def sent(
        self, next_hop: str | None = None, as_path: tuple[int, ...] | None = None
    ) -> "Route":
        """The wire form a speaker sends: reception metadata dropped, next
        hop and AS path rewritten when given."""
        return _new(Route, (
            self.prefix, self.as_path if as_path is None else as_path,
            self.next_hop if next_hop is None else next_hop, self.origin, self.med,
            self.local_pref, self.communities, self.originator_id, self.cluster_list,
            None, False,
        ))

    def reflected(self, originator: str, cluster_id: str) -> "Route":
        """A copy with RFC 4456 reflection attributes updated."""
        return _new(Route, (
            self.prefix, self.as_path, self.next_hop, self.origin, self.med,
            self.local_pref, self.communities, self.originator_id or originator,
            (cluster_id,) + self.cluster_list, self.learned_from, self.ebgp,
        ))

    def __str__(self) -> str:
        path = " ".join(map(str, self.as_path)) if self.as_path else "(empty)"
        return f"{self.prefix} via {self.next_hop} lp={self.local_pref} path=[{path}]"
