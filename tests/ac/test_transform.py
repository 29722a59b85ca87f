"""Tests for repro.ac.transform (binarization, pruning)."""

import math

import pytest
from hypothesis import given, settings

from repro.ac.circuit import ArithmeticCircuit
from repro.ac.evaluate import evaluate_real
from repro.ac.nodes import OpType
from repro.ac.transform import binarize, prune_unreachable
from tests.ac.strategies import circuits
from tests.conftest import all_evidence_combinations


def wide_circuit(fanin: int):
    """A single sum over `fanin` θλ products (one variable, fanin states)."""
    circuit = ArithmeticCircuit()
    terms = []
    for state in range(fanin):
        theta = circuit.add_parameter((state + 1) / (fanin * (fanin + 1) / 2))
        lam = circuit.add_indicator("X", state)
        terms.append(circuit.add_product([theta, lam]))
    circuit.set_root(circuit.add_sum(terms))
    return circuit


class TestBinarize:
    @pytest.mark.parametrize("fanin", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("strategy", ["balanced", "chain"])
    def test_preserves_semantics(self, fanin, strategy):
        circuit = wide_circuit(fanin)
        result = binarize(circuit, strategy)
        assert result.circuit.is_binary
        for state in list(range(fanin)) + [None]:
            evidence = {"X": state} if state is not None else None
            assert evaluate_real(result.circuit, evidence) == pytest.approx(
                evaluate_real(circuit, evidence)
            )

    @pytest.mark.parametrize("fanin", [4, 7, 16, 33])
    def test_balanced_depth_is_logarithmic(self, fanin):
        circuit = wide_circuit(fanin)
        balanced = binarize(circuit, "balanced").circuit
        # products add depth 1; the sum tree adds ceil(log2(fanin)).
        assert balanced.stats().depth == 1 + math.ceil(math.log2(fanin))

    @pytest.mark.parametrize("fanin", [4, 7, 16])
    def test_chain_depth_is_linear(self, fanin):
        circuit = wide_circuit(fanin)
        chained = binarize(circuit, "chain").circuit
        assert chained.stats().depth == 1 + (fanin - 1)

    def test_same_operator_count_either_strategy(self):
        circuit = wide_circuit(9)
        balanced = binarize(circuit, "balanced").circuit
        chained = binarize(circuit, "chain").circuit
        assert balanced.stats().num_sums == chained.stats().num_sums == 8

    def test_node_map_translates_root(self):
        circuit = wide_circuit(5)
        result = binarize(circuit)
        assert result.root == result.node_map[circuit.root]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            binarize(wide_circuit(3), "zigzag")

    def test_drops_unreachable_nodes(self):
        circuit = wide_circuit(3)
        circuit.add_parameter(0.123456)  # orphan
        result = binarize(circuit)
        values = [
            node.value
            for node in result.circuit.nodes
            if node.op.value == "parameter"
        ]
        assert 0.123456 not in values

    def test_compiled_network_binarized(self, sprinkler, sprinkler_ac, sprinkler_binary):
        assert sprinkler_binary.is_binary
        for evidence in all_evidence_combinations(sprinkler)[:8]:
            assert evaluate_real(sprinkler_binary, evidence) == pytest.approx(
                evaluate_real(sprinkler_ac.circuit, evidence)
            )


def reference_binarize(circuit: ArithmeticCircuit, strategy: str):
    """``(circuit, node_map)`` built only through the public n-ary calls."""
    reachable = circuit.reachable_from_root()
    result = ArithmeticCircuit(name=f"{circuit.name}_bin", dedup=True)
    add = {
        OpType.SUM: result.add_sum,
        OpType.PRODUCT: result.add_product,
        OpType.MAX: result.add_max,
    }
    node_map = {}
    for index, node in enumerate(circuit.nodes):
        if index not in reachable:
            continue
        if node.op is OpType.PARAMETER:
            node_map[index] = result.add_parameter(node.value, node.label)
        elif node.op is OpType.INDICATOR:
            node_map[index] = result.add_indicator(node.variable, node.state)
        else:
            level = [node_map[c] for c in node.children]
            if strategy == "chain":
                while len(level) > 1:
                    level = [add[node.op](level[:2])] + level[2:]
            while len(level) > 1:
                paired = [
                    add[node.op](level[i : i + 2])
                    for i in range(0, len(level) - 1, 2)
                ]
                level = paired + level[len(paired) * 2 :]
            node_map[index] = level[0]
    result.set_root(node_map[circuit.root])
    return result, node_map


class TestBinarizeMatchesNaryReference:
    """binarize's two-input builder path emits the n-ary path's arena."""

    @settings(max_examples=150, deadline=None)
    @given(circuits())
    @pytest.mark.parametrize("strategy", ["balanced", "chain"])
    def test_same_node_sequence(self, strategy, circuit):
        got = binarize(circuit, strategy)
        want, want_map = reference_binarize(circuit, strategy)
        assert got.circuit.nodes == want.nodes
        assert [node.label for node in got.circuit.nodes] == [
            node.label for node in want.nodes
        ]
        assert got.root == want.root
        assert got.node_map == want_map
        assert got.circuit.is_binary
        assert got.circuit.stats() == want.stats()
        assert got.circuit.depths() == want.depths()


class TestPruneUnreachable:
    def test_preserves_nary_structure(self):
        circuit = wide_circuit(5)
        circuit.add_indicator("Orphan", 0)
        pruned = prune_unreachable(circuit).circuit
        assert pruned.stats().max_fanin == 5
        assert "Orphan" not in pruned.indicator_variables

    def test_semantics_preserved(self):
        circuit = wide_circuit(4)
        pruned = prune_unreachable(circuit).circuit
        assert evaluate_real(pruned, None) == pytest.approx(
            evaluate_real(circuit, None)
        )
