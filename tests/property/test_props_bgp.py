"""Property-based tests for the BGP decision process."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import decision
from repro.bgp.attributes import Origin, Route
from repro.bgp.decision import best_external, best_route, decision_order
from repro.net.addressing import Prefix

PFX = Prefix.parse("203.0.113.0/24")


@st.composite
def routes(draw):
    path_length = draw(st.integers(min_value=1, max_value=5))
    as_path = tuple(draw(st.integers(min_value=1, max_value=20)) for _ in range(path_length))
    return Route(
        prefix=PFX,
        as_path=as_path,
        next_hop=draw(st.sampled_from(["n1", "n2", "n3"])),
        origin=draw(st.sampled_from(list(Origin))),
        med=draw(st.integers(min_value=0, max_value=100)),
        local_pref=draw(st.integers(min_value=50, max_value=500)),
        learned_from=draw(st.sampled_from(["p1", "p2", "p3", "p4"])),
        ebgp=draw(st.booleans()),
    )


IGP_METRIC = {"n1": 1.0, "n2": 5.0, "n3": 9.0}


class TestDecisionProperties:
    @given(st.lists(routes(), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_best_is_a_candidate(self, candidates):
        best = best_route(candidates, IGP_METRIC)
        assert best in candidates

    @given(st.lists(routes(), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_order_invariance(self, candidates):
        """The selected route must not depend on candidate order."""
        forward = best_route(candidates, IGP_METRIC)
        backward = best_route(list(reversed(candidates)), IGP_METRIC)
        assert forward == backward

    @given(st.lists(routes(), min_size=1, max_size=8))
    def test_best_has_max_local_pref(self, candidates):
        best = best_route(candidates, IGP_METRIC)
        assert best.local_pref == max(r.local_pref for r in candidates)

    @given(st.lists(routes(), min_size=1, max_size=8))
    def test_survivors_subset(self, candidates):
        survivors = decision_order(candidates, IGP_METRIC)
        assert survivors
        assert set(id(r) for r in survivors) <= set(id(r) for r in candidates)

    @given(st.lists(routes(), min_size=2, max_size=8))
    @settings(max_examples=300)
    def test_removing_a_loser_keeps_best(self, candidates):
        """Independence of irrelevant alternatives: dropping a non-best
        candidate never changes the selection."""
        best = best_route(candidates, IGP_METRIC)
        for i in range(len(candidates)):
            if candidates[i] == best:
                continue
            remaining = candidates[:i] + candidates[i + 1 :]
            assert best_route(remaining, IGP_METRIC) == best


# --------------------------------------------------------------------- #
# differential oracle: keyed one-pass selection ≡ the staged process
# --------------------------------------------------------------------- #

INF = float("inf")

#: IGP views with no / some / all next hops unreachable, with ties, and
#: one that does not name ``n2`` (external: it costs 0.0).
IGP_VIEWS = (
    {"n1": 1.0, "n2": 5.0, "n3": 9.0},
    {"n1": 2.0, "n2": 2.0, "n3": INF},
    {"n1": INF, "n2": 3.0, "n3": INF},
    {"n1": INF, "n2": INF, "n3": INF},
    {"n1": 1.0, "n3": INF},
)


@st.composite
def tie_prone_routes(draw, meds):
    """Routes over small attribute domains, so every stage gets to break ties.

    Covers what :func:`routes` never produces: reflection attributes,
    locally originated routes (``learned_from=None``) and — through the
    IGP views above — unreachable next hops.
    """
    as_path = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    return Route(
        prefix=PFX,
        as_path=as_path,
        next_hop=draw(st.sampled_from(["n1", "n2", "n3"])),
        origin=draw(st.sampled_from(list(Origin))),
        med=draw(meds),
        local_pref=draw(st.sampled_from([100, 200])),
        originator_id=draw(st.sampled_from([None, "o1", "o2"])),
        cluster_list=draw(st.sampled_from([(), ("c1",), ("c2", "c1")])),
        learned_from=draw(st.sampled_from([None, "p1", "p2", "p3"])),
        ebgp=draw(st.booleans()),
    )


#: Equal MEDs (one drawn value for the whole list) or mixed ones, within
#: and across neighbour ASes (the AS-path heads above collide often).
candidate_lists = st.one_of(
    st.integers(0, 2).flatmap(
        lambda med: st.lists(tie_prone_routes(st.just(med)), min_size=1, max_size=7)
    ),
    st.lists(tie_prone_routes(st.sampled_from([0, 10])), min_size=1, max_size=7),
)

igp_metrics = st.sampled_from(IGP_VIEWS)


def short_key(route: Route, igp_metric) -> tuple:
    """What ``best_route`` ranks by before it builds a tail."""
    metric = igp_metric.get(route.next_hop, 0.0)
    return (
        metric == INF,
        -route.local_pref,
        len(route.as_path),
        route.origin,
        not route.ebgp,
        metric,
    )


def test_keyed_selection_is_the_head_of_the_staged_order(monkeypatch):
    """``best_route`` / ``best_external`` pick exactly the staged winner.

    ``decision_order`` is the reference; ``best_route`` may only call it
    for the non-transitive per-neighbour-AS MED stage.  Every way through
    ``best_route`` must be exercised, which the counter checks: the staged
    fallback, a winner alone on the short key, and a short-key tie broken
    by the tail.
    """
    reference = decision_order
    staged_calls = []

    def counting(routes, igp_metric):
        staged_calls.append(len(routes))
        return reference(routes, igp_metric)

    monkeypatch.setattr(decision, "decision_order", counting)
    taken = Counter()

    @given(candidate_lists, igp_metrics)
    @settings(max_examples=600, deadline=None)
    def check(candidates, igp_metric):
        before = len(staged_calls)
        assert best_route(candidates, igp_metric) is reference(candidates, igp_metric)[0]
        if len(staged_calls) > before:
            taken["staged"] += 1
        else:
            keys = [short_key(r, igp_metric) for r in candidates]
            taken["tail" if keys.count(min(keys)) > 1 else "short"] += 1
        externals = [r for r in candidates if r.ebgp]
        expected = reference(externals, igp_metric)[0] if externals else None
        assert best_external(candidates, igp_metric) is expected

    check()
    assert min(taken["staged"], taken["short"], taken["tail"]) > 20, taken
