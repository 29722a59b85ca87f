"""Tests for repro.ac.circuit and repro.ac.nodes."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ac.circuit import ArithmeticCircuit, CircuitStats, topological_check
from repro.ac.io import circuit_from_dict, circuit_to_dict
from repro.ac.nodes import Node, OpType
from tests.ac.strategies import circuits


def small_circuit():
    """(θ0.3 · λA0) + (θ0.7 · λA1)"""
    circuit = ArithmeticCircuit("small")
    t1 = circuit.add_parameter(0.3)
    t2 = circuit.add_parameter(0.7)
    a0 = circuit.add_indicator("A", 0)
    a1 = circuit.add_indicator("A", 1)
    p1 = circuit.add_product([t1, a0])
    p2 = circuit.add_product([t2, a1])
    root = circuit.add_sum([p1, p2])
    circuit.set_root(root)
    return circuit


class TestNodeValidation:
    def test_operator_needs_children(self):
        with pytest.raises(ValueError, match="children"):
            Node(OpType.SUM)

    def test_parameter_needs_value(self):
        with pytest.raises(ValueError, match="value"):
            Node(OpType.PARAMETER)

    def test_parameter_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Node(OpType.PARAMETER, value=-0.5)

    def test_parameter_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            Node(OpType.PARAMETER, value=float("nan"))

    def test_indicator_needs_variable_and_state(self):
        with pytest.raises(ValueError, match="variable"):
            Node(OpType.INDICATOR)

    def test_operator_rejects_payload(self):
        with pytest.raises(ValueError, match="payload"):
            Node(OpType.SUM, children=(0,), value=1.0)

    def test_indicator_rejects_negative_state(self):
        with pytest.raises(ValueError, match="non-negative"):
            Node(OpType.INDICATOR, variable="A", state=-1)

    def test_operator_rejects_variable_payload(self):
        with pytest.raises(ValueError, match="payload"):
            Node(OpType.PRODUCT, children=(0, 1), variable="A")

    def test_describe(self):
        assert "0.25" in Node(OpType.PARAMETER, value=0.25).describe()
        assert "λ(A=1)" == Node(OpType.INDICATOR, variable="A", state=1).describe()


class TestNodeRecord:
    """``Node`` is an immutable slot record with value semantics."""

    NODES = [
        Node(OpType.PARAMETER, value=0.25, label="θ(A=0)"),
        Node(OpType.INDICATOR, variable="A", state=1),
        Node(OpType.SUM, children=(0, 1)),
        Node(OpType.MAX, children=(2, 0, 1)),
    ]

    def test_eq_and_hash_ignore_label(self):
        labelled = Node(OpType.PARAMETER, value=0.5, label="θ(B=1)")
        plain = Node(OpType.PARAMETER, value=0.5)
        assert labelled == plain
        assert hash(labelled) == hash(plain)
        assert len({labelled, plain}) == 1

    def test_eq_compares_every_other_field(self):
        assert Node(OpType.SUM, children=(0, 1)) != Node(
            OpType.PRODUCT, children=(0, 1)
        )
        assert Node(OpType.SUM, children=(0, 1)) != Node(
            OpType.SUM, children=(1, 0)
        )
        assert Node(OpType.INDICATOR, variable="A", state=0) != Node(
            OpType.INDICATOR, variable="B", state=0
        )
        assert Node(OpType.PARAMETER, value=0.5) != (OpType.PARAMETER, 0.5)

    @pytest.mark.parametrize("field", ["op", "children", "value", "label"])
    def test_assignment_raises(self, field):
        node = Node(OpType.PARAMETER, value=0.5)
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        assert node.value == 0.5

    def test_no_instance_dict(self):
        node = Node(OpType.PARAMETER, value=0.5)
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.extra = 1

    @pytest.mark.parametrize("index", range(len(NODES)))
    def test_pickle_and_deepcopy_round_trip(self, index):
        node = self.NODES[index]
        for clone in (
            pickle.loads(pickle.dumps(node)),
            copy.deepcopy(node),
            copy.copy(node),
        ):
            assert clone == node
            assert clone.label == node.label
            assert repr(clone) == repr(node)

    def test_repr_lists_every_field(self):
        assert repr(Node(OpType.SUM, children=(0, 1))) == (
            "Node(op=<OpType.SUM: 'sum'>, children=(0, 1), value=None, "
            "variable=None, state=None, label=None)"
        )

    def test_builder_operators_equal_constructed_nodes(self):
        circuit = small_circuit()
        for node in circuit.nodes:
            rebuilt = Node(
                node.op,
                children=node.children,
                value=node.value,
                variable=node.variable,
                state=node.state,
                label=node.label,
            )
            assert rebuilt == node
            assert repr(rebuilt) == repr(node)


class TestBuilder:
    def test_construction_and_stats(self):
        circuit = small_circuit()
        stats = circuit.stats()
        assert stats.num_parameters == 2
        assert stats.num_indicators == 2
        assert stats.num_products == 2
        assert stats.num_sums == 1
        assert stats.depth == 2
        assert stats.num_operators == 3

    def test_parameter_dedup_by_value(self):
        circuit = ArithmeticCircuit()
        a = circuit.add_parameter(0.5)
        b = circuit.add_parameter(0.5)
        assert a == b

    def test_indicator_dedup(self):
        circuit = ArithmeticCircuit()
        a = circuit.add_indicator("X", 1)
        b = circuit.add_indicator("X", 1)
        assert a == b

    def test_cse_on_operators(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        y = circuit.add_parameter(0.2)
        p1 = circuit.add_product([x, y])
        p2 = circuit.add_product([y, x])  # commutative: same node
        assert p1 == p2

    def test_cse_disabled(self):
        circuit = ArithmeticCircuit(dedup=False)
        x = circuit.add_parameter(0.1)
        y = circuit.add_parameter(0.1)
        assert x != y

    def test_unary_operator_collapses(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        assert circuit.add_sum([x]) == x
        assert circuit.add_product([x]) == x

    def test_empty_children_rejected(self):
        circuit = ArithmeticCircuit()
        with pytest.raises(ValueError, match="at least one"):
            circuit.add_sum([])

    def test_out_of_range_child_rejected(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="out of range"):
            circuit.add_sum([x, 99])

    def test_root_must_be_set(self):
        circuit = ArithmeticCircuit()
        circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="no root"):
            _ = circuit.root

    def test_root_out_of_range(self):
        circuit = ArithmeticCircuit()
        circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="out of range"):
            circuit.set_root(5)


class TestIntrospection:
    def test_indicator_queries(self):
        circuit = small_circuit()
        assert circuit.indicator_variables == ("A",)
        assert circuit.indicator_states("A") == (0, 1)
        assert len(circuit.indicators) == 2

    def test_parents_map(self):
        circuit = small_circuit()
        parents = circuit.parents_map()
        root = circuit.root
        for node_index in circuit.node(root).children:
            assert root in parents[node_index]

    def test_depths_and_topological_order(self):
        circuit = small_circuit()
        assert topological_check(circuit)
        depths = circuit.depths()
        assert depths[circuit.root] == 2

    def test_reachable_from_root(self):
        circuit = small_circuit()
        # Add an orphan node not connected to the root.
        circuit.add_parameter(0.99)
        reachable = circuit.reachable_from_root()
        assert len(reachable) == 7

    def test_is_binary(self):
        circuit = small_circuit()
        assert circuit.is_binary
        x = circuit.add_sum(
            [circuit.add_parameter(0.1)] * 3
        )
        assert not circuit.is_binary

    def test_indicator_assignment_semantics(self):
        circuit = small_circuit()
        values = circuit.indicator_assignment({"A": 1})
        assert values[("A", 0)] == 0.0
        assert values[("A", 1)] == 1.0
        no_evidence = circuit.indicator_assignment(None)
        assert set(no_evidence.values()) == {1.0}

    def test_indicator_assignment_rejects_unknown_variable(self):
        circuit = small_circuit()
        with pytest.raises(ValueError, match="no indicators"):
            circuit.indicator_assignment({"Z": 0})


def walked_facts(circuit):
    """``(is_binary, stats, depths)`` by a full walk over the arena."""
    depths = []
    for node in circuit.nodes:
        depths.append(1 + max(depths[c] for c in node.children) if node.children else 0)
    ops = [node.op for node in circuit.nodes]
    fanins = [len(node.children) for node in circuit.nodes]
    stats = CircuitStats(
        num_nodes=len(ops),
        num_sums=ops.count(OpType.SUM),
        num_products=ops.count(OpType.PRODUCT),
        num_max=ops.count(OpType.MAX),
        num_parameters=ops.count(OpType.PARAMETER),
        num_indicators=ops.count(OpType.INDICATOR),
        depth=max(depths, default=0),
        max_fanin=max(fanins, default=0),
    )
    is_binary = all(
        len(node.children) <= 2
        for node in circuit.nodes
        if node.op in (OpType.SUM, OpType.PRODUCT, OpType.MAX)
    )
    return is_binary, stats, depths


def stored_facts(circuit):
    return circuit.is_binary, circuit.stats(), circuit.depths()


class TestStoredFacts:
    """is_binary/stats()/depths() are recorded at insertion, never walked."""

    def test_op_type_flags(self):
        leaves = {OpType.PARAMETER, OpType.INDICATOR}
        for op in OpType:
            assert op.is_leaf is (op in leaves)
            assert op.is_operator is (op not in leaves)

    @settings(max_examples=150, deadline=None)
    @given(circuits())
    def test_facts_match_a_full_walk(self, circuit):
        assert stored_facts(circuit) == walked_facts(circuit)
        assert topological_check(circuit)

    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_facts_survive_io_round_trip(self, circuit):
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        assert stored_facts(rebuilt) == walked_facts(rebuilt)

    @settings(max_examples=60, deadline=None)
    @given(circuits(), st.lists(st.integers(0, 10_000), min_size=2, max_size=5))
    def test_deepcopy_keeps_facts_and_builds_independently(self, circuit, picks):
        clone = copy.deepcopy(circuit)
        assert stored_facts(clone) == walked_facts(clone)
        before = stored_facts(circuit)
        clone.add_sum([pick % len(clone) for pick in picks])
        assert stored_facts(clone) == walked_facts(clone)
        assert stored_facts(circuit) == before

    def test_depths_is_a_copy(self):
        circuit = small_circuit()
        circuit.depths().append(99)
        assert circuit.depths() == walked_facts(circuit)[2]

    def test_pair_path_matches_nary_path(self):
        nary = ArithmeticCircuit()
        pair = ArithmeticCircuit()
        for circuit in (nary, pair):
            for value in (0.1, 0.2, 0.3):
                circuit.add_parameter(value)
        for op, a, b in [
            (OpType.SUM, 0, 1),
            (OpType.SUM, 1, 0),
            (OpType.PRODUCT, 2, 2),
            (OpType.MAX, 3, 2),
        ]:
            add = {
                OpType.SUM: nary.add_sum,
                OpType.PRODUCT: nary.add_product,
                OpType.MAX: nary.add_max,
            }[op]
            assert pair._add_pair(op, a, b) == add([a, b])
        assert pair.nodes == nary.nodes
        assert stored_facts(pair) == stored_facts(nary) == walked_facts(nary)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([OpType.SUM, OpType.PRODUCT, OpType.MAX]),
                st.lists(st.integers(0, 2), min_size=1, max_size=5),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_nary_path_matches_checked_path(self, calls):
        checked = ArithmeticCircuit()
        nary = ArithmeticCircuit()
        for circuit in (checked, nary):
            for value in (0.1, 0.2, 0.3):
                circuit.add_parameter(value)
        for op, offsets in calls:
            # Children among the most recent nodes, so operators nest.
            size = len(checked)
            children = [max(0, size - 1 - offset) for offset in offsets]
            add = {
                OpType.SUM: checked.add_sum,
                OpType.PRODUCT: checked.add_product,
                OpType.MAX: checked.add_max,
            }[op]
            assert nary._add_nary(op, children) == add(children)
        assert [repr(node) for node in nary.nodes] == [
            repr(node) for node in checked.nodes
        ]
        assert stored_facts(nary) == stored_facts(checked) == walked_facts(nary)

    def test_out_of_range_reports_first_bad_child(self):
        circuit = ArithmeticCircuit()
        x = circuit.add_parameter(0.1)
        with pytest.raises(ValueError, match="child index 7 out of range"):
            circuit.add_product([x, 7, -1, 9])
        with pytest.raises(ValueError, match="child index -1 out of range"):
            circuit.add_product([-1, x, 9])
        assert len(circuit) == 1
