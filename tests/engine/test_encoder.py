"""EvidenceEncoder vs the circuit's reference indicator semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ac.circuit import ArithmeticCircuit
from repro.engine import EvidenceEncoder, tape_for

from .conftest import random_circuit, random_evidence_batch


def encoder_and_circuit():
    circuit = ArithmeticCircuit()
    leaves = [
        circuit.add_indicator("A", 0),
        circuit.add_indicator("A", 1),
        circuit.add_indicator("B", 0),
        circuit.add_indicator("B", 1),
        circuit.add_indicator("B", 2),
    ]
    circuit.set_root(circuit.add_sum(leaves))
    return EvidenceEncoder.for_circuit(circuit), circuit


class TestEncodeOne:
    def test_matches_indicator_assignment(self, engine_rng):
        circuit = random_circuit(engine_rng)
        encoder = EvidenceEncoder.for_circuit(circuit)
        tape = tape_for(circuit)
        for evidence in random_evidence_batch(engine_rng, circuit, 25):
            reference = circuit.indicator_assignment(evidence)
            active = encoder.encode_one(evidence)
            for position, key in enumerate(tape.indicator_keys):
                assert float(active[position]) == reference[key], (evidence, key)

    def test_no_evidence_is_all_ones(self):
        encoder, _ = encoder_and_circuit()
        assert encoder.encode_one(None).all()
        assert encoder.encode_one({}).all()

    def test_strict_rejects_unknown_variable(self):
        encoder, _ = encoder_and_circuit()
        with pytest.raises(ValueError, match="no indicators"):
            encoder.encode_one({"Z": 0})

    def test_lenient_ignores_unknown_variable(self):
        encoder, _ = encoder_and_circuit()
        active = encoder.encode_one({"Z": 0}, strict=False)
        assert active.all()


class TestEncodeBatch:
    def test_matrix_matches_per_row_encoding(self, engine_rng):
        encoder, circuit = encoder_and_circuit()
        batch = random_evidence_batch(engine_rng, circuit, 40)
        matrix = encoder.encode(batch)
        assert matrix.shape == (encoder.num_indicators, len(batch))
        for column, evidence in enumerate(batch):
            expected = encoder.encode_one(evidence)
            assert (matrix[:, column] == expected).all()

    def test_unseen_state_zeroes_all_indicators_of_variable(self):
        encoder, _ = encoder_and_circuit()
        # State 7 has no λ leaf: every A-indicator must read 0 (the
        # λ-semantics of evidence contradicting all recorded states).
        matrix = encoder.encode([{"A": 7}])
        assert matrix[:2, 0].tolist() == [False, False]
        assert matrix[2:, 0].all()

    def test_negative_state_is_observed_not_unobserved(self):
        """Regression: a negative evidence state must zero the
        variable's indicators (seed semantics), not collide with the
        internal 'unobserved' sentinel and read as all-ones."""
        encoder, circuit = encoder_and_circuit()
        matrix = encoder.encode([{"A": -1}, {"A": -5}])
        assert not matrix[:2].any()
        assert matrix[2:].all()
        # End-to-end parity with the seed evaluator.
        from repro.ac.evaluate import evaluate_real
        from repro.engine.reference import reference_evaluate_real

        assert evaluate_real(circuit, {"A": -1}) == (
            reference_evaluate_real(circuit, {"A": -1})
        )

    def test_empty_batch(self):
        encoder, _ = encoder_and_circuit()
        assert encoder.encode([]).shape == (encoder.num_indicators, 0)

    def test_strict_batch_collects_unknowns(self):
        encoder, _ = encoder_and_circuit()
        with pytest.raises(ValueError, match=r"\['Y', 'Z'\]"):
            encoder.encode([{"Z": 0}, {"Y": 1}, {"A": 0}], strict=True)


# ---------------------------------------------------------------------------
# Properties: encode(batch) == encode_one(row) == indicator_assignment(row)
# ---------------------------------------------------------------------------

_VARIABLES = ("A", "B", "C", "D", "E")
_UNKNOWN = ("Y", "Z")
_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def indicator_circuits(draw):
    """A sum over λ leaves: 1–5 variables, each with a non-empty set of
    (possibly sparse) states, added in a drawn order."""
    variables = draw(
        st.lists(st.sampled_from(_VARIABLES), min_size=1, unique=True)
    )
    keys = [
        (variable, state)
        for variable in variables
        for state in draw(
            st.sets(st.integers(0, 6), min_size=1, max_size=4)
        )
    ]
    circuit = ArithmeticCircuit()
    leaves = [
        circuit.add_indicator(variable, state)
        for variable, state in draw(st.permutations(keys))
    ]
    circuit.set_root(circuit.add_sum(leaves))
    return circuit


def state_values():
    """Evidence values as callers pass them: seen, unseen and negative
    states, extreme int64s, bools and numpy integer scalars."""
    small = st.integers(-3, 8)
    return st.one_of(
        small,
        _INT64,
        st.booleans(),
        small.map(np.int64),
        small.map(np.int32),
        st.booleans().map(np.bool_),
    )


def evidence_batches(names=_VARIABLES + _UNKNOWN):
    return st.lists(
        st.dictionaries(st.sampled_from(names), state_values(), max_size=7),
        max_size=8,
    )


def assert_columns_match(circuit, matrix, batch):
    """Every column equals encode_one and indicator_assignment."""
    encoder = EvidenceEncoder.for_circuit(circuit)
    keys = tape_for(circuit).indicator_keys
    assert matrix.dtype == bool
    assert matrix.shape == (encoder.num_indicators, len(batch))
    for column, evidence in enumerate(batch):
        known = {
            variable: value
            for variable, value in evidence.items()
            if variable in encoder.variables
        }
        np.testing.assert_array_equal(
            matrix[:, column], encoder.encode_one(evidence, strict=False)
        )
        reference = circuit.indicator_assignment(known)
        assert matrix[:, column].tolist() == [
            reference[key] == 1.0 for key in keys
        ], (evidence, keys)


class TestEncodeProperties:
    @settings(max_examples=200, deadline=None)
    @given(circuit=indicator_circuits(), batch=evidence_batches())
    def test_lenient_columns_match_scalar_semantics(self, circuit, batch):
        encoder = EvidenceEncoder.for_circuit(circuit)
        assert_columns_match(circuit, encoder.encode(batch), batch)

    @settings(max_examples=200, deadline=None)
    @given(circuit=indicator_circuits(), batch=evidence_batches())
    def test_strict_rejects_exactly_the_unknown_variables(
        self, circuit, batch
    ):
        encoder = EvidenceEncoder.for_circuit(circuit)
        unknown = sorted(
            {v for evidence in batch for v in evidence} - set(encoder.variables)
        )
        if unknown:
            with pytest.raises(ValueError, match="no indicators") as raised:
                encoder.encode(batch, strict=True)
            assert str(unknown) in str(raised.value)
            return
        matrix = encoder.encode(batch, strict=True)
        assert_columns_match(circuit, matrix, batch)
        for column, evidence in enumerate(batch):
            np.testing.assert_array_equal(
                matrix[:, column], encoder.encode_one(evidence)
            )

    @settings(max_examples=100, deadline=None)
    @given(
        circuit=indicator_circuits(),
        rows=st.integers(0, 8),
        strict=st.booleans(),
    )
    def test_empty_evidence_is_all_ones(self, circuit, rows, strict):
        encoder = EvidenceEncoder.for_circuit(circuit)
        matrix = encoder.encode([{}] * rows, strict=strict)
        assert matrix.shape == (encoder.num_indicators, rows)
        assert matrix.all()
