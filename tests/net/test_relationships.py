"""Unit tests for the AS relationship graph."""

import pytest

from repro.net.relationships import ASGraph, Relationship


@pytest.fixture
def graph() -> ASGraph:
    g = ASGraph()
    # 1 and 2 are providers; 3 buys from both; 4 buys from 3; 3 peers 5.
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 3)
    g.add_provider_customer(3, 4)
    g.add_peering(3, 5)
    g.add_provider_customer(1, 5)
    return g


class TestEdges:
    def test_inverse_consistency(self, graph):
        assert graph.relationship(1, 3) is Relationship.CUSTOMER
        assert graph.relationship(3, 1) is Relationship.PROVIDER

    def test_peering_symmetric(self, graph):
        assert graph.relationship(3, 5) is Relationship.PEER
        assert graph.relationship(5, 3) is Relationship.PEER

    def test_self_loop_rejected(self):
        g = ASGraph()
        with pytest.raises(ValueError):
            g.add_peering(1, 1)

    def test_duplicate_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_peering(1, 3)

    def test_unknown_pair_raises(self, graph):
        with pytest.raises(KeyError):
            graph.relationship(1, 4)


class TestQueries:
    def test_customers_of(self, graph):
        assert set(graph.customers_of(1)) == {3, 5}

    def test_providers_of(self, graph):
        assert set(graph.providers_of(3)) == {1, 2}

    def test_peers_of(self, graph):
        assert graph.peers_of(3) == [5]

    def test_lists_in_edge_insertion_order(self):
        g = ASGraph()
        g.add_provider_customer(1, 9)
        g.add_peering(1, 4)
        g.add_provider_customer(1, 3)
        g.add_provider_customer(7, 1)
        g.add_peering(1, 2)
        g.add_provider_customer(5, 1)
        assert g.customers_of(1) == [9, 3]
        assert g.peers_of(1) == [4, 2]
        assert g.providers_of(1) == [7, 5]

    @pytest.mark.parametrize("query", ["customers_of", "providers_of", "peers_of"])
    def test_returned_lists_are_fresh(self, graph, query):
        before = {asn: getattr(graph, query)(asn) for asn in graph.asns()}
        for asn in graph.asns():
            returned = getattr(graph, query)(asn)
            returned.append(999)
            returned.clear()
        assert {asn: getattr(graph, query)(asn) for asn in graph.asns()} == before
        assert getattr(graph, query)(3) is not getattr(graph, query)(3)

    def test_edge_added_later_reaches_both_endpoints(self, graph):
        assert graph.customers_of(1) == [3, 5]
        graph.add_provider_customer(1, 6)
        graph.add_peering(6, 4)
        assert graph.customers_of(1) == [3, 5, 6]
        assert graph.providers_of(6) == [1]
        assert graph.peers_of(6) == [4]
        assert graph.peers_of(4) == [6]
        assert graph.relationship(6, 1) is Relationship.PROVIDER

    def test_customer_cone(self, graph):
        assert graph.customer_cone(1) == {1, 3, 4, 5}
        assert graph.customer_cone(4) == {4}

    def test_relationship_inverse_helper(self):
        assert Relationship.CUSTOMER.inverse() is Relationship.PROVIDER
        assert Relationship.PEER.inverse() is Relationship.PEER


class TestCliqueReachability:
    def test_all_reach_clique(self, graph):
        for asn in graph.asns():
            assert graph.has_provider_path_to_clique(asn, [1, 2])

    def test_orphan_does_not_reach(self):
        g = ASGraph()
        g.add_as(9)
        g.add_provider_customer(1, 2)
        assert not g.has_provider_path_to_clique(9, [1])
        assert g.has_provider_path_to_clique(2, [1])
        assert g.has_provider_path_to_clique(1, [1])
