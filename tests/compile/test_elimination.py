"""Tests for repro.compile.elimination (BN → AC compilation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ac.evaluate import evaluate_real
from repro.ac.validate import validate_circuit
from repro.bn.inference import probability_of_evidence
from repro.bn.networks import chain_network, random_network, tree_network
from repro.compile import (
    compile_network,
    min_degree_order,
    network_polynomial_brute_force,
)
from tests.compile.reference import reference_compile
from tests.compile.strategies import networks
from tests.conftest import all_evidence_combinations


class TestCompileCorrectness:
    def test_figure1_example(self, figure1):
        # The paper's example: evidence e = {A=a1, C=c3}.
        compiled = compile_network(figure1)
        evidence = {"A": 0, "C": 2}
        assert compiled.evaluate(evidence) == pytest.approx(
            network_polynomial_brute_force(figure1, evidence)
        )

    @pytest.mark.parametrize(
        "fixture_name", ["sprinkler", "figure1", "asia"]
    )
    def test_matches_brute_force_on_all_full_evidence(
        self, fixture_name, request
    ):
        network = request.getfixturevalue(fixture_name)
        compiled = compile_network(network)
        for evidence in all_evidence_combinations(network):
            assert compiled.evaluate(evidence) == pytest.approx(
                network.joint(evidence), abs=1e-12
            )

    def test_matches_ve_on_partial_evidence(self, asia):
        compiled = compile_network(asia)
        cases = [
            {},
            {"Xray": 1},
            {"Smoking": 1, "Dyspnea": 1},
            {"Asia": 1, "Xray": 0, "Bronchitis": 1},
        ]
        for evidence in cases:
            assert compiled.evaluate(evidence) == pytest.approx(
                probability_of_evidence(asia, evidence)
            )

    def test_lambda_one_evaluation_is_one(self, alarm_ac):
        # The network polynomial at λ=1 sums the whole distribution.
        assert evaluate_real(alarm_ac.circuit, None) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_networks(self, seed):
        network = random_network(7, max_parents=2, seed=seed)
        compiled = compile_network(network)
        validate_circuit(compiled.circuit)
        assert compiled.evaluate(None) == pytest.approx(1.0)
        evidence = {network.variable_names[0]: 0}
        assert compiled.evaluate(evidence) == pytest.approx(
            probability_of_evidence(network, evidence)
        )

    def test_chain_and_tree_families(self):
        for network in (chain_network(7, 3), tree_network(3, 2, 2)):
            compiled = compile_network(network)
            assert compiled.evaluate(None) == pytest.approx(1.0)

    def test_custom_elimination_order(self, sprinkler):
        order = min_degree_order(sprinkler)
        compiled = compile_network(sprinkler, order=order)
        assert compiled.elimination_order == order
        assert compiled.evaluate({"WetGrass": 1}) == pytest.approx(
            probability_of_evidence(sprinkler, {"WetGrass": 1})
        )

    def test_bad_order_rejected(self, sprinkler):
        with pytest.raises(ValueError, match="every network variable"):
            compile_network(sprinkler, order=("Rain",))

    def test_bad_mode_rejected(self, sprinkler):
        with pytest.raises(ValueError, match="mode"):
            compile_network(sprinkler, mode="median")


class TestCompiledStructure:
    def test_all_variables_have_indicators(self, alarm, alarm_ac):
        variables = set(alarm_ac.circuit.indicator_variables)
        assert variables == set(alarm.variable_names)

    def test_indicator_states_match_cardinalities(self, alarm, alarm_ac):
        for name in alarm.variable_names:
            states = alarm_ac.circuit.indicator_states(name)
            assert states == tuple(range(alarm.variable(name).cardinality))

    def test_provenance_metadata(self, sprinkler_ac):
        assert sprinkler_ac.network_name == "sprinkler"
        assert sprinkler_ac.mode == "sum"
        assert len(sprinkler_ac.elimination_order) == 4

    def test_circuit_size_scales_with_network(self, sprinkler_ac, alarm_ac):
        assert len(alarm_ac.circuit) > len(sprinkler_ac.circuit)

    def test_parameter_labels_present(self, sprinkler_ac):
        labels = [
            node.label
            for node in sprinkler_ac.circuit.nodes
            if node.op.value == "parameter" and node.label
        ]
        assert any("θ(" in label for label in labels)


class TestMatchesCheckedReference:
    """The compiler emits the node sequence of one checked ``add_*`` call
    per factor entry, though it builds through the unchecked n-ary path."""

    @staticmethod
    def assert_same_circuit(compiled, reference):
        assert [repr(node) for node in compiled.nodes] == [
            repr(node) for node in reference.nodes
        ]
        assert compiled.root == reference.root
        assert compiled.stats() == reference.stats()
        assert compiled.depths() == reference.depths()

    @given(
        networks(max_variables=8, max_cardinality=3),
        st.sampled_from(["sum", "max"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_fill_order(self, network, mode):
        compiled = compile_network(network, mode=mode)
        self.assert_same_circuit(
            compiled.circuit,
            reference_compile(network, compiled.elimination_order, mode),
        )

    @given(networks(max_variables=6, max_cardinality=3), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_any_order(self, network, rng):
        order = list(network.variable_names)
        rng.shuffle(order)
        self.assert_same_circuit(
            compile_network(network, order=order).circuit,
            reference_compile(network, order),
        )

    def test_alarm(self, alarm, alarm_ac):
        self.assert_same_circuit(
            alarm_ac.circuit,
            reference_compile(alarm, alarm_ac.elimination_order),
        )
