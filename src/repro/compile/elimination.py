"""BN → AC compilation by symbolic variable elimination.

This replaces the closed-source ACE tool the paper uses. The compiled
circuit computes the *network polynomial*

.. math:: f(\\lambda) = \\sum_{\\mathbf{x}} \\prod_i
          \\theta_{x_i|\\mathbf{u}_i} \\lambda_{x_i},

so evaluating it with indicators set from evidence ``e`` yields ``Pr(e)``
(an upward pass, exactly as in §2 of the paper). Compiling with
``mode="max"`` yields a max-product circuit whose evaluation is the MPE
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Mapping

from ..ac.circuit import ArithmeticCircuit
from ..ac.nodes import OpType
from ..bn.network import BayesianNetwork
from .factor import (
    SymbolicFactor,
    _entry_table,
    eliminate_variable,
    factors_mentioning,
    multiply_factors,
)
from .ordering import min_fill_order, validate_order

import numpy as np


@dataclass(frozen=True)
class CompiledCircuit:
    """A compiled AC plus its provenance."""

    circuit: ArithmeticCircuit
    network_name: str
    elimination_order: tuple[str, ...]
    mode: str

    def evaluate(self, evidence: Mapping[str, int] | None = None) -> float:
        """Exact float64 evaluation; ``Pr(e)`` (or MPE value for max mode)."""
        return self.circuit.evaluate(evidence)


def cpt_symbolic_factor(
    circuit: ArithmeticCircuit, cpt, with_indicators: bool = True
) -> SymbolicFactor:
    """Encode one CPT as a symbolic factor.

    Each entry is ``θ(child=x | parents=u) · λ(child=x)`` — multiplying the
    child's evidence indicator into its CPT is the standard encoding of the
    network polynomial.
    """
    names = tuple(v.name for v in cpt.scope)
    order = tuple(int(i) for i in np.argsort(names))
    scope = tuple(names[i] for i in order)
    cards = tuple(cpt.scope[i].cardinality for i in order)
    values = np.transpose(cpt.table, order).ravel().tolist()
    child = cpt.child.name
    child_axis = order.index(len(names) - 1)
    parent_axes = [i for i in range(len(scope)) if i != child_axis]
    assignments = [
        [f"{scope[i]}={state}" for state in range(card)]
        for i, card in enumerate(cards)
    ]

    product = OpType.PRODUCT
    entries = []
    configs = iter_product(*map(range, cards))
    for config, value in zip(configs, values):
        child_state = config[child_axis] if cards else 0
        parent_desc = ",".join([assignments[i][config[i]] for i in parent_axes])
        label = (
            f"θ({child}={child_state}|{parent_desc})"
            if parent_desc
            else f"θ({child}={child_state})"
        )
        theta = circuit.add_parameter(value, label)
        if with_indicators:
            lam = circuit.add_indicator(child, child_state)
            entries.append(circuit._add_pair(product, theta, lam))
        else:
            entries.append(theta)
    return SymbolicFactor(scope, cards, _entry_table(entries, cards))


def compile_network(
    network: BayesianNetwork,
    order: Iterable[str] | None = None,
    mode: str = "sum",
    name: str | None = None,
) -> CompiledCircuit:
    """Compile a Bayesian network into an arithmetic circuit.

    Parameters
    ----------
    order:
        Elimination order; defaults to greedy min-fill.
    mode:
        ``"sum"`` for the network polynomial (marginal/conditional
        queries) or ``"max"`` for a max-product MPE circuit.
    """
    if mode not in ("sum", "max"):
        raise ValueError(f"mode must be 'sum' or 'max', got {mode!r}")
    order = tuple(order) if order is not None else min_fill_order(network)
    validate_order(network, order)

    circuit = ArithmeticCircuit(
        name=name or f"{network.name}_{mode}_ac", dedup=True
    )
    pool: list[SymbolicFactor] = [
        cpt_symbolic_factor(circuit, cpt) for cpt in network.cpts()
    ]
    for variable in order:
        involved, pool = factors_mentioning(pool, variable)
        if not involved:
            continue
        product = multiply_factors(circuit, involved)
        pool.append(eliminate_variable(circuit, product, variable, mode))

    # All remaining factors are scalars; combine them into the root.
    scalars = [factor.scalar_entry() for factor in pool]
    if not scalars:
        raise RuntimeError("elimination produced no result factor")
    root = circuit.add_product(scalars) if len(scalars) > 1 else scalars[0]
    circuit.set_root(root)
    return CompiledCircuit(
        circuit=circuit,
        network_name=network.name,
        elimination_order=order,
        mode=mode,
    )


def network_polynomial_brute_force(
    network: BayesianNetwork, evidence: Mapping[str, int]
) -> float:
    """Reference ``Pr(e)`` by explicit enumeration (tests only; exponential)."""
    names = network.variable_names
    cards = [network.variable(n).cardinality for n in names]
    total = 0.0
    for assignment in iter_product(*(range(c) for c in cards)):
        full = dict(zip(names, assignment))
        if any(full[v] != s for v, s in evidence.items()):
            continue
        total += network.joint(full)
    return total
