"""The BGP best-route decision process (RFC 4271 §9.1, plus RFC 4456).

Section 3.2 summarises the process as ordered tie-breakers: administrative
preference (LOCAL_PREF) first, then AS-path length, then "a set of measures
to ensure that inter-domain traffic exits the local AS quickly" — eBGP over
iBGP and lowest IGP metric to the next hop, i.e. hot-potato routing.  The
geo-based route reflector wins by acting at the *first* step: it assigns
LOCAL_PREF from geographic distance, so all later hot-potato steps become
irrelevant whenever geography discriminates.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from types import MappingProxyType

from repro.bgp.attributes import Route

_UNREACHABLE = float("inf")

#: The IGP view of a speaker that has none: every next hop costs 0.0.
_NO_IGP: Mapping[str, float] = MappingProxyType({})


def _stage_max(routes: list[Route], key: Callable[[Route], float]) -> list[Route]:
    best = max(key(r) for r in routes)
    return [r for r in routes if key(r) == best]


def _stage_min(routes: list[Route], key: Callable[[Route], float]) -> list[Route]:
    best = min(key(r) for r in routes)
    return [r for r in routes if key(r) == best]


def _med_stage(routes: list[Route]) -> list[Route]:
    """Keep routes that are lowest-MED within their neighbour-AS group."""
    lowest_by_neighbor: dict[int | None, int] = {}
    for route in routes:
        key = route.neighbor_as
        if key not in lowest_by_neighbor or route.med < lowest_by_neighbor[key]:
            lowest_by_neighbor[key] = route.med
    return [r for r in routes if r.med == lowest_by_neighbor[r.neighbor_as]]


def decision_order(
    routes: Sequence[Route], igp_metric: Mapping[str, float] = _NO_IGP
) -> list[Route]:
    """All candidates that survive the decision process, best first.

    The first element is the best route; remaining elements are the other
    survivors of the last discriminating stage, in deterministic order.
    ``igp_metric`` is the speaker's IGP view, next hop -> metric; it drives
    hot-potato (here and in :func:`best_route` / :func:`best_external`).  A
    next hop it does not name is external, resolved over the local
    session: it costs 0.0.
    """
    if not routes:
        return []
    survivors = list(routes)

    # 0. Next-hop resolvability (RFC 4271 §9.1.2): a route whose next hop
    #    the IGP cannot reach is ineligible.  Applied only while some
    #    candidate *is* reachable — a speaker whose whole IGP view is gone
    #    (an out-of-band reflector at a failed PoP) keeps its table rather
    #    than withdrawing the world, and a prefix whose every egress is
    #    stranded stays visibly routed-but-blackholed instead of vanishing.
    reachable = [
        r for r in survivors if igp_metric.get(r.next_hop, 0.0) != _UNREACHABLE
    ]
    if reachable:
        survivors = reachable

    # 1. Highest LOCAL_PREF.
    survivors = _stage_max(survivors, lambda r: r.local_pref)
    # 2. Shortest AS_PATH.
    survivors = _stage_min(survivors, lambda r: len(r.as_path))
    # 3. Lowest ORIGIN (IGP < EGP < INCOMPLETE).
    survivors = _stage_min(survivors, lambda r: int(r.origin))
    # 4. Lowest MED among routes from the same neighbour AS.
    survivors = _med_stage(survivors)
    # 5. eBGP-learned over iBGP-learned.
    if any(r.ebgp for r in survivors):
        survivors = [r for r in survivors if r.ebgp]
    # 6. Lowest IGP metric to the BGP next hop (hot potato).
    survivors = _stage_min(survivors, lambda r: igp_metric.get(r.next_hop, 0.0))
    # 7. Shortest CLUSTER_LIST (RFC 4456 §9).
    survivors = _stage_min(survivors, lambda r: len(r.cluster_list))
    # 8. Lowest originator router id, then lowest peer id.  The AS path
    #    itself closes the order (a speaker never holds two routes from
    #    the same peer for one prefix, but the function stays total).
    survivors.sort(
        key=lambda r: (
            r.originator_id or r.learned_from or "",
            r.learned_from or "",
            str(r.next_hop),
            r.as_path,
            r.med,
        )
    )
    return survivors


def best_route(
    routes: Sequence[Route], igp_metric: Mapping[str, float] = _NO_IGP
) -> Route | None:
    """The single best route among ``routes`` (``None`` if empty).

    One pass: the minimum of one lexicographic key per candidate, which
    *is* the staged process of :func:`decision_order` whenever MED cannot
    discriminate per neighbour AS (all MEDs equal).  Otherwise the
    per-neighbour-AS MED stage is not a total order and the staged
    process — the reference, and that stage's only implementation —
    decides.

    The key is short — reachability, LOCAL_PREF, AS-path length, ORIGIN,
    eBGP over iBGP, IGP metric (the equal MED drops out) — and its tail
    (:func:`_tail`) is built only for a candidate that ties the best so
    far on it.
    """
    if not routes:
        return None
    med = routes[0].med
    best = best_key = best_tail = None
    for r in routes:
        if r.med != med:
            return decision_order(routes, igp_metric)[0]
        metric = igp_metric.get(r.next_hop, 0.0)
        key = (
            metric == _UNREACHABLE,  # ranked only when nothing is reachable
            -r.local_pref,
            len(r.as_path),
            r.origin,
            not r.ebgp,
            metric,
        )
        if best_key is None or key < best_key:
            best, best_key, best_tail = r, key, None
        elif key == best_key:
            if best_tail is None:
                best_tail = _tail(best)
            tail = _tail(r)
            if tail < best_tail:
                best, best_tail = r, tail
    return best


def _tail(r: Route) -> tuple:
    """The rest of :func:`best_route`'s key: stages 7 and 8 of
    :func:`decision_order`, closed by the AS path."""
    return (
        len(r.cluster_list),
        r.originator_id or r.learned_from or "",
        r.learned_from or "",
        r.next_hop,
        r.as_path,
    )


def best_external(
    routes: Sequence[Route], igp_metric: Mapping[str, float] = _NO_IGP
) -> Route | None:
    """The best route among the eBGP-learned candidates only.

    This is what the "BGP best external" feature advertises into iBGP when
    the overall best route is iBGP-learned, keeping externally learned
    routes visible to route reflectors (the paper's hidden-routes fix).
    """
    externals = [r for r in routes if r.ebgp]
    if not externals:
        return None
    return best_route(externals, igp_metric)
