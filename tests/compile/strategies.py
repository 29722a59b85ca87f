"""Hypothesis strategies shared by the compiler tests."""

from hypothesis import strategies as st

from repro.bn.networks import chain_network, random_network, tree_network


@st.composite
def networks(draw, max_variables=12, max_cardinality=2):
    """Random DAGs, chains and trees.

    Their many equal fill-in counts exercise both min-fill tie-breaks
    (scope count, then name).
    """
    kind = draw(st.sampled_from(["random", "chain", "tree"]))
    cardinality = draw(st.integers(2, max_cardinality))
    if kind == "random":
        return random_network(
            draw(st.integers(1, max_variables)),
            max_parents=draw(st.integers(1, 4)),
            max_cardinality=cardinality,
            seed=draw(st.integers(0, 10_000)),
        )
    if kind == "chain":
        return chain_network(
            draw(st.integers(1, max_variables)), cardinality=cardinality
        )
    return tree_network(
        draw(st.integers(0, 3)),
        branching=draw(st.integers(1, 3)),
        cardinality=cardinality,
    )
