"""Unit tests for the eBGP import and export rules."""

import pytest

from repro.bgp.attributes import NO_EXPORT, Route
from repro.bgp.messages import Update
from repro.bgp.policy import (
    RELATIONSHIP_LOCAL_PREF,
    exports_to,
    exports_to_ebgp,
    import_verdict,
    strip_ibgp_only_attributes,
)
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionType
from repro.net.addressing import Prefix
from repro.net.relationships import Relationship

PFX = Prefix.parse("203.0.113.0/24")

RELATIONSHIPS = {
    100: Relationship.PROVIDER,
    200: Relationship.PEER,
    300: Relationship.CUSTOMER,
}


def ebgp_session(peer_asn: int) -> Session:
    return Session(peer_id=f"x{peer_asn}", session_type=SessionType.EBGP, peer_asn=peer_asn)


def ibgp_session() -> Session:
    return Session(peer_id="rr", session_type=SessionType.IBGP, peer_asn=65000)


def route(**kwargs) -> Route:
    defaults = dict(prefix=PFX, as_path=(100, 9), next_hop="nh")
    defaults.update(kwargs)
    return Route(**defaults)


class TestRelationshipImport:
    """The rule answers ``(local_pref, communities)``; the router builds the route."""

    def test_provider_gets_low_pref(self):
        local_pref, communities = import_verdict(route(), 100, RELATIONSHIPS)
        assert local_pref == 100
        assert "rel:provider" in communities

    def test_peer_and_customer_prefs(self):
        assert import_verdict(route(), 200, RELATIONSHIPS)[0] == 200
        assert import_verdict(route(), 300, RELATIONSHIPS)[0] == 300

    def test_unknown_neighbor_rejected(self):
        assert import_verdict(route(), 999, RELATIONSHIPS) is None

    def test_ibgp_passthrough(self):
        # The rule is not applied over iBGP: the speaker keeps what it got.
        router = BgpRouter("r1", 65000, relationships=RELATIONSHIPS)
        original = route(local_pref=2345, communities=frozenset({"rel:peer"}))
        stored = router._import(original, ibgp_session())
        assert stored.local_pref == 2345
        assert stored.communities is original.communities

    def test_custom_pref_ladder(self):
        # The ladder is RELATIONSHIP_LOCAL_PREF's, whatever the route carried.
        for asn, relationship in RELATIONSHIPS.items():
            assert (
                import_verdict(route(local_pref=50), asn, RELATIONSHIPS)[0]
                == RELATIONSHIP_LOCAL_PREF[relationship]
            )

    def test_equal_tags_share_one_set(self):
        first = import_verdict(route(), 200, RELATIONSHIPS)[1]
        again = import_verdict(route(next_hop="other"), 200, RELATIONSHIPS)[1]
        assert first == frozenset({"rel:peer"})
        assert again is first
        # Already tagged: the same value, still the shared set.
        already = route(communities=frozenset({"rel:peer"}))
        assert import_verdict(already, 200, RELATIONSHIPS)[1] is first
        # Another speaker's table: still the one set.
        other_table = {200: Relationship.PEER}
        assert import_verdict(route(), 200, other_table)[1] is first


class TestRelationshipExport:
    def test_everything_to_customer(self):
        provider_route = route(communities=frozenset({"rel:provider"}))
        assert exports_to(provider_route, 300, RELATIONSHIPS)

    def test_provider_routes_not_to_peer(self):
        provider_route = route(communities=frozenset({"rel:provider"}))
        assert not exports_to(provider_route, 200, RELATIONSHIPS)

    def test_peer_routes_not_to_provider(self):
        peer_route = route(communities=frozenset({"rel:peer"}))
        assert not exports_to(peer_route, 100, RELATIONSHIPS)

    def test_customer_routes_to_everyone(self):
        customer_route = route(communities=frozenset({"rel:customer"}))
        for asn in (100, 200, 300):
            assert exports_to(customer_route, asn, RELATIONSHIPS)

    def test_originated_to_everyone(self):
        originated = route(as_path=())
        for asn in (100, 200, 300):
            assert exports_to(originated, asn, RELATIONSHIPS)

    def test_no_export_always_blocked(self):
        tagged = route(as_path=(), communities=frozenset({NO_EXPORT}))
        assert not exports_to(tagged, 300, RELATIONSHIPS)

    def test_unknown_peer_blocked(self):
        assert not exports_to(route(as_path=()), 999, RELATIONSHIPS)

    def test_ibgp_passthrough(self):
        # The rule is not applied over iBGP: a speaker holding a provider
        # route sends it to its iBGP peer as it is (next-hop-self aside).
        router = BgpRouter("r1", 65000, relationships=RELATIONSHIPS)
        router.add_session(ibgp_session())
        original = route(communities=frozenset({"rel:provider"}))
        router.originated[PFX] = original
        assert router._decide(PFX) == [Update("r1", "rr", original.sent("r1"))]


class TestExportsToEbgp:
    """``exports_to_ebgp`` is False only where ``exports_to`` refuses every eBGP peer."""

    ROUTES = {
        "provider": route(communities=frozenset({"rel:provider"})),
        "peer": route(communities=frozenset({"rel:peer"})),
        "customer": route(communities=frozenset({"rel:customer"})),
        "originated": route(as_path=()),
        "no-export": route(as_path=(), communities=frozenset({NO_EXPORT})),
    }

    @pytest.mark.parametrize("with_customer", [True, False])
    def test_agrees_with_apply_per_session(self, with_customer):
        relationships = {
            asn: rel
            for asn, rel in RELATIONSHIPS.items()
            if with_customer or rel is not Relationship.CUSTOMER
        }
        for name, candidate in self.ROUTES.items():
            passes = [
                exports_to(candidate, asn, relationships) for asn in (*relationships, 999)
            ]
            assert exports_to_ebgp(candidate, relationships) == any(passes), name

    def test_without_customers_only_originated_and_customer_routes(self):
        relationships = {100: Relationship.PROVIDER, 200: Relationship.PEER}
        exportable = {
            name
            for name, candidate in self.ROUTES.items()
            if exports_to_ebgp(candidate, relationships)
        }
        assert exportable == {"customer", "originated"}


class TestHelpers:
    def test_strip_ibgp_only(self):
        noisy = route(
            local_pref=4242,
            originator_id="rA",
            cluster_list=("c1", "c2"),
        )
        cleaned = strip_ibgp_only_attributes(noisy)
        assert cleaned.local_pref == 100
        assert cleaned.originator_id is None
        assert cleaned.cluster_list == ()


class TestRuleTable:
    """What a speaker does with a route, by the relationship of the eBGP
    neighbour, session type and route kind.

    Each row is ``(import over eBGP, import over iBGP, export to eBGP,
    export to iBGP, exports_to_ebgp)``.  An import answers the stored
    ``(LOCAL_PREF, sorted communities)`` or ``None`` for a rejected route;
    an export says whether the speaker, holding the route as its only
    candidate, sends it over the session.  The speaker holds
    :data:`RELATIONSHIPS` (which has a customer), or no table at all.
    """

    #: The eBGP neighbour's ASN per relationship row.
    NEIGHBOUR = {"customer": 300, "peer": 200, "provider": 100, "unknown": 999, "no table": 100}
    KINDS = {
        "originated": route(as_path=(), local_pref=2345),
        "customer-learned": route(
            as_path=(300, 9), local_pref=2345, communities=frozenset({"rel:customer"})
        ),
        "other": route(local_pref=2345, communities=frozenset({"rel:peer"})),
        "no-export": route(as_path=(), local_pref=2345, communities=frozenset({NO_EXPORT})),
    }
    EXPECTED = {
        ("customer", "originated"): ((300, ["rel:customer"]), (2345, []), True, True, True),
        ("customer", "customer-learned"): (
            (300, ["rel:customer"]), (2345, ["rel:customer"]), True, True, True,
        ),
        ("customer", "other"): (
            (300, ["rel:customer", "rel:peer"]), (2345, ["rel:peer"]), True, True, True,
        ),
        ("customer", "no-export"): (
            (300, ["no-export", "rel:customer"]), (2345, ["no-export"]), False, True, False,
        ),
        ("peer", "originated"): ((200, ["rel:peer"]), (2345, []), True, True, True),
        ("peer", "customer-learned"): (
            (200, ["rel:customer", "rel:peer"]), (2345, ["rel:customer"]), True, True, True,
        ),
        ("peer", "other"): ((200, ["rel:peer"]), (2345, ["rel:peer"]), False, True, True),
        ("peer", "no-export"): (
            (200, ["no-export", "rel:peer"]), (2345, ["no-export"]), False, True, False,
        ),
        ("provider", "originated"): ((100, ["rel:provider"]), (2345, []), True, True, True),
        ("provider", "customer-learned"): (
            (100, ["rel:customer", "rel:provider"]), (2345, ["rel:customer"]), True, True, True,
        ),
        ("provider", "other"): (
            (100, ["rel:peer", "rel:provider"]), (2345, ["rel:peer"]), False, True, True,
        ),
        ("provider", "no-export"): (
            (100, ["no-export", "rel:provider"]), (2345, ["no-export"]), False, True, False,
        ),
        ("unknown", "originated"): (None, (2345, []), False, True, True),
        ("unknown", "customer-learned"): (None, (2345, ["rel:customer"]), False, True, True),
        ("unknown", "other"): (None, (2345, ["rel:peer"]), False, True, True),
        ("unknown", "no-export"): (None, (2345, ["no-export"]), False, True, False),
        ("no table", "originated"): ((100, []), (2345, []), True, True, True),
        ("no table", "customer-learned"): (
            (100, ["rel:customer"]), (2345, ["rel:customer"]), True, True, True,
        ),
        ("no table", "other"): ((100, ["rel:peer"]), (2345, ["rel:peer"]), True, True, True),
        ("no table", "no-export"): ((100, ["no-export"]), (2345, ["no-export"]), False, True, True),
    }

    @staticmethod
    def speaker(relationship: str) -> BgpRouter:
        """A speaker with the table (or none), an eBGP and an iBGP session."""
        table = None if relationship == "no table" else RELATIONSHIPS
        router = BgpRouter("r1", 65000, relationships=table)
        router.add_session(ebgp_session(TestRuleTable.NEIGHBOUR[relationship]))
        router.add_session(ibgp_session())
        return router

    @staticmethod
    def exports_to_ebgp(router: BgpRouter, candidate: Route) -> bool:
        return exports_to_ebgp(candidate, router.relationships)

    def test_every_kind_is_covered(self):
        assert set(self.EXPECTED) == {(r, k) for r in self.NEIGHBOUR for k in self.KINDS}

    @pytest.mark.parametrize(
        "relationship, kind", sorted(EXPECTED), ids=[f"{r}-{k}" for r, k in sorted(EXPECTED)]
    )
    def test_row(self, relationship, kind):
        candidate = self.KINDS[kind]
        router = self.speaker(relationship)
        imports = []
        for session in router.sessions.values():
            stored = router._import(candidate, session)
            imports.append(
                None if stored is None else (stored.local_pref, sorted(stored.communities))
            )
        router.originated[PFX] = candidate
        sent = {m.receiver for m in router._decide(PFX) if isinstance(m, Update)}
        exports = [peer_id in sent for peer_id in router.sessions]
        answer = self.exports_to_ebgp(router, candidate)
        assert (*imports, *exports, answer) == self.EXPECTED[relationship, kind]
