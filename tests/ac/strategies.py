"""Hypothesis strategies for arithmetic circuits built through the public API."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ac.circuit import ArithmeticCircuit

#: A few repeated values, so parameter deduplication actually hits.
PARAMETER_VALUES = (0.0, 0.1, 0.25, 0.5, 1.0)


@st.composite
def circuits(draw, dedup=st.booleans()):
    """A random rooted circuit: leaves and n-ary operators, interleaved.

    Operators come from ``add_sum``/``add_product``/``add_max`` with
    fan-ins 1–5 over any earlier node, so the builder's unary collapse,
    CSE hits (repeated children sets, commuted orders) and duplicate
    children all occur. The root is the last node.
    """
    circuit = ArithmeticCircuit("prop", dedup=draw(dedup))
    builders = (circuit.add_sum, circuit.add_product, circuit.add_max)
    for _ in range(draw(st.integers(1, 30))):
        if len(circuit) == 0 or draw(st.integers(0, 2)) == 0:
            if draw(st.booleans()):
                circuit.add_parameter(draw(st.sampled_from(PARAMETER_VALUES)))
            else:
                circuit.add_indicator(
                    draw(st.sampled_from("ABC")), draw(st.integers(0, 2))
                )
        else:
            add = draw(st.sampled_from(builders))
            last = len(circuit) - 1
            add(draw(st.lists(st.integers(0, last), min_size=1, max_size=5)))
    circuit.set_root(len(circuit) - 1)
    return circuit
