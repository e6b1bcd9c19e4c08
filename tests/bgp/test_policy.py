"""Unit tests for import/export policies."""

import pytest

from repro.bgp.attributes import NO_EXPORT, Route
from repro.bgp.policy import (
    RELATIONSHIP_LOCAL_PREF,
    RelationshipExportPolicy,
    RelationshipImportPolicy,
    strip_ibgp_only_attributes,
)
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
    """The policy answers ``(local_pref, communities)``; the router builds the route."""

    def test_provider_gets_low_pref(self):
        policy = RelationshipImportPolicy(RELATIONSHIPS)
        local_pref, communities = policy.apply(route(), ebgp_session(100), 100)
        assert local_pref == 100
        assert "rel:provider" in communities

    def test_peer_and_customer_prefs(self):
        policy = RelationshipImportPolicy(RELATIONSHIPS)
        assert policy.apply(route(), ebgp_session(200), 100)[0] == 200
        assert policy.apply(route(), ebgp_session(300), 100)[0] == 300

    def test_unknown_neighbor_rejected(self):
        policy = RelationshipImportPolicy(RELATIONSHIPS)
        assert policy.apply(route(), ebgp_session(999), 100) is None

    def test_ibgp_passthrough(self):
        policy = RelationshipImportPolicy(RELATIONSHIPS)
        original = route(local_pref=2345, communities=frozenset({"rel:peer"}))
        local_pref, communities = policy.apply(original, ibgp_session(), 2345)
        assert local_pref == 2345
        assert communities is original.communities

    def test_custom_pref_ladder(self):
        # The ladder is RELATIONSHIP_LOCAL_PREF's, whatever the route carried.
        policy = RelationshipImportPolicy(RELATIONSHIPS)
        for asn, relationship in RELATIONSHIPS.items():
            assert (
                policy.apply(route(), ebgp_session(asn), 50)[0]
                == RELATIONSHIP_LOCAL_PREF[relationship]
            )

    def test_equal_tags_share_one_set(self):
        policy = RelationshipImportPolicy(RELATIONSHIPS)
        first = policy.apply(route(), ebgp_session(200), 100)[1]
        again = policy.apply(route(next_hop="other"), ebgp_session(200), 100)[1]
        assert first == frozenset({"rel:peer"})
        assert again is first
        # Already tagged: the same value, still the shared set.
        already = route(communities=frozenset({"rel:peer"}))
        assert policy.apply(already, ebgp_session(200), 100)[1] is first


class TestRelationshipExport:
    def test_everything_to_customer(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        provider_route = route(communities=frozenset({"rel:provider"}))
        assert policy.apply(provider_route, ebgp_session(300)) is not None

    def test_provider_routes_not_to_peer(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        provider_route = route(communities=frozenset({"rel:provider"}))
        assert policy.apply(provider_route, ebgp_session(200)) is None

    def test_peer_routes_not_to_provider(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        peer_route = route(communities=frozenset({"rel:peer"}))
        assert policy.apply(peer_route, ebgp_session(100)) is None

    def test_customer_routes_to_everyone(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        customer_route = route(communities=frozenset({"rel:customer"}))
        for asn in (100, 200, 300):
            assert policy.apply(customer_route, ebgp_session(asn)) is not None

    def test_originated_to_everyone(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        originated = route(as_path=())
        for asn in (100, 200, 300):
            assert policy.apply(originated, ebgp_session(asn)) is not None

    def test_no_export_always_blocked(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        tagged = route(as_path=(), communities=frozenset({NO_EXPORT}))
        assert policy.apply(tagged, ebgp_session(300)) is None

    def test_unknown_peer_blocked(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        assert policy.apply(route(as_path=()), ebgp_session(999)) is None

    def test_ibgp_passthrough(self):
        policy = RelationshipExportPolicy(RELATIONSHIPS)
        original = route(communities=frozenset({"rel:provider"}))
        assert policy.apply(original, ibgp_session()) is original


class TestExportsToEbgp:
    """``exports_to_ebgp`` is False only where ``apply`` refuses every eBGP session."""

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
        policy = RelationshipExportPolicy(relationships)
        for name, candidate in self.ROUTES.items():
            passes = [
                policy.apply(candidate, ebgp_session(asn)) is not None
                for asn in (*relationships, 999)
            ]
            assert policy.exports_to_ebgp(candidate) == any(passes), name

    def test_without_customers_only_originated_and_customer_routes(self):
        policy = RelationshipExportPolicy(
            {100: Relationship.PROVIDER, 200: Relationship.PEER}
        )
        exportable = {
            name for name, candidate in self.ROUTES.items() if policy.exports_to_ebgp(candidate)
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
