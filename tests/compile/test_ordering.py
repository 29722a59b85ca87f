"""Tests for repro.compile.ordering."""

import pytest
from hypothesis import given, settings

from repro.bn.networks import random_network
from repro.compile.ordering import (
    induced_width,
    min_degree_order,
    min_fill_order,
    moral_graph,
    validate_order,
)
from tests.compile.reference import (
    neighbours_only_min_fill_order,
    reference_min_fill_order,
    reference_moral_graph,
)
from tests.compile.strategies import networks


class TestMoralGraph:
    def test_parents_are_married(self, sprinkler):
        graph = moral_graph(sprinkler)
        # Sprinkler and Rain share the child WetGrass -> moral edge.
        assert graph.has_edge("Rain", "Sprinkler")

    def test_all_variables_present(self, alarm):
        graph = moral_graph(alarm)
        assert set(graph.nodes) == set(alarm.variable_names)

    @given(networks())
    @settings(max_examples=50, deadline=None)
    def test_same_graph_as_edge_by_edge_reference(self, network):
        graph = moral_graph(network)
        reference = reference_moral_graph(network)
        assert list(graph.nodes) == list(reference.nodes)
        assert {frozenset(edge) for edge in graph.edges} == {
            frozenset(edge) for edge in reference.edges
        }


class TestOrders:
    @pytest.mark.parametrize("factory", [min_fill_order, min_degree_order])
    def test_order_is_a_permutation(self, factory, alarm):
        order = factory(alarm)
        assert sorted(order) == sorted(alarm.variable_names)

    def test_alarm_induced_width_is_small(self, alarm):
        # The Alarm network has treewidth 4; greedy min-fill should find
        # an order at (or very near) that width.
        order = min_fill_order(alarm)
        assert induced_width(alarm, order) <= 5

    def test_min_fill_prefers_leaf_scopes(self, mini_benchmark):
        # In a Naive Bayes network the features must eliminate before the
        # class (fewer factors involved -> smaller circuits).
        network = mini_benchmark.classifier.network
        order = min_fill_order(network)
        assert order[-1] == "Class"

    def test_validate_order_accepts_permutation(self, sprinkler):
        validate_order(sprinkler, min_fill_order(sprinkler))

    def test_validate_order_rejects_partial(self, sprinkler):
        with pytest.raises(ValueError, match="every network variable"):
            validate_order(sprinkler, ("Rain",))

    def test_validate_order_rejects_duplicates(self, sprinkler):
        order = list(min_fill_order(sprinkler))
        order[0] = order[1]
        with pytest.raises(ValueError):
            validate_order(sprinkler, tuple(order))

    def test_induced_width_of_chain_is_one(self):
        from repro.bn.networks import chain_network

        chain = chain_network(6)
        order = min_fill_order(chain)
        assert induced_width(chain, order) == 1


class TestMinFillMatchesReference:
    """The incremental min-fill picks exactly the full-recompute order."""

    @given(networks())
    @settings(max_examples=200, deadline=None)
    def test_same_order_as_full_recompute(self, network):
        assert min_fill_order(network) == reference_min_fill_order(network)

    def test_non_neighbour_count_change(self):
        # Eliminating a variable here adds a fill edge between two
        # neighbours of a variable two hops away, and the lowered count
        # of that variable decides a later pick: refreshing only the
        # neighbours picks a different order.
        network = random_network(6, max_parents=2, max_cardinality=2, seed=28)
        reference = reference_min_fill_order(network)
        assert neighbours_only_min_fill_order(network) != reference
        assert min_fill_order(network) == reference

    @pytest.mark.parametrize("name", ["alarm", "asia", "sprinkler", "figure1"])
    def test_named_networks(self, name, request):
        network = request.getfixturevalue(name)
        assert min_fill_order(network) == reference_min_fill_order(network)

    def test_naive_bayes_ties(self, mini_benchmark):
        # Every feature ties on fill-in and scope count; names decide.
        network = mini_benchmark.classifier.network
        assert min_fill_order(network) == reference_min_fill_order(network)
