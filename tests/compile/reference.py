"""Test oracles for :mod:`repro.compile`.

``reference_compile`` is the compiler as it was written before it built
through the builder's unchecked n-ary path: one public, checked
``add_*`` call per factor entry, configurations enumerated one by one.
The library's compiler must emit exactly its node sequence.

``reference_min_fill_order`` is the full-recompute networkx
implementation the library used before it switched to incremental
adjacency sets: after every elimination it recounts the fill-in of every
remaining variable. ``neighbours_only_min_fill_order`` is the tempting
shortcut that refreshes only the eliminated variable's neighbours; it
is wrong, and the tests use it to show that a case really exercises a
non-neighbour whose count changed.
"""

from __future__ import annotations

from itertools import product as iter_product

import networkx as nx
import numpy as np

from repro.ac.circuit import ArithmeticCircuit
from repro.compile.factor import SymbolicFactor, factors_mentioning


def reference_moral_graph(network) -> nx.Graph:
    """The moral graph, built edge by edge from the CPT scopes."""
    graph = nx.Graph()
    graph.add_nodes_from(network.variable_names)
    for cpt in network.cpts():
        scope = [v.name for v in cpt.scope]
        for i, a in enumerate(scope):
            for b in scope[i + 1 :]:
                graph.add_edge(a, b)
    return graph


def scope_counts(network) -> dict[str, int]:
    """How many CPT scopes mention each variable (the min-fill tie-break)."""
    counts = {name: 0 for name in network.variable_names}
    for cpt in network.cpts():
        for variable in cpt.scope:
            counts[variable.name] += 1
    return counts


def fill_in_count(graph: nx.Graph, node: str) -> int:
    """Number of edges elimination of ``node`` would add."""
    neighbors = list(graph.neighbors(node))
    missing = 0
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1 :]:
            if not graph.has_edge(a, b):
                missing += 1
    return missing


def eliminate(graph: nx.Graph, node: str) -> None:
    neighbors = list(graph.neighbors(node))
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1 :]:
            graph.add_edge(a, b)
    graph.remove_node(node)


def reference_min_fill_order(network) -> tuple[str, ...]:
    """Greedy min-fill, recounting every variable after each step."""
    graph = reference_moral_graph(network)
    scopes = scope_counts(network)
    order = []
    while graph.number_of_nodes():
        best = min(
            graph.nodes,
            key=lambda n: (fill_in_count(graph, n), scopes[n], n),
        )
        order.append(best)
        eliminate(graph, best)
    return tuple(order)


def neighbours_only_min_fill_order(network) -> tuple[str, ...]:
    """Greedy min-fill that refreshes only the eliminated node's neighbours.

    Wrong: a fill edge between two neighbours of a variable two hops away
    lowers that variable's count, and this version keeps the stale one.
    """
    graph = reference_moral_graph(network)
    scopes = scope_counts(network)
    keys = {n: (fill_in_count(graph, n), scopes[n], n) for n in graph.nodes}
    order = []
    while keys:
        best = min(keys.values())[2]
        order.append(best)
        neighbors = list(graph.neighbors(best))
        eliminate(graph, best)
        del keys[best]
        for node in neighbors:
            keys[node] = (fill_in_count(graph, node), scopes[node], node)
    return tuple(order)


def _cpt_factor(circuit, cpt):
    names = tuple(v.name for v in cpt.scope)
    order = tuple(int(i) for i in np.argsort(names))
    scope = tuple(names[i] for i in order)
    cards = tuple(cpt.scope[i].cardinality for i in order)
    table = np.transpose(cpt.table, order)
    child_axis = order.index(len(names) - 1)
    entries = np.empty(cards, dtype=object)
    for config in np.ndindex(*cards):
        child_state = config[child_axis]
        parent_desc = ",".join(
            f"{scope[i]}={config[i]}"
            for i in range(len(scope))
            if i != child_axis
        )
        label = (
            f"θ({cpt.child.name}={child_state}|{parent_desc})"
            if parent_desc
            else f"θ({cpt.child.name}={child_state})"
        )
        theta = circuit.add_parameter(float(table[config]), label)
        lam = circuit.add_indicator(cpt.child.name, int(child_state))
        entries[config] = circuit.add_product([theta, lam])
    return SymbolicFactor(scope, cards, entries)


def _multiply(circuit, factors):
    if len(factors) == 1:
        return factors[0]
    union = {}
    for factor in factors:
        union.update(zip(factor.scope, factor.cards))
    scope = tuple(sorted(union))
    cards = tuple(union[name] for name in scope)
    positions = [
        tuple(scope.index(name) for name in factor.scope) for factor in factors
    ]
    entries = np.empty(cards, dtype=object)
    for config in iter_product(*(range(c) for c in cards)):
        entries[config] = circuit.add_product(
            [
                factor.entry(tuple(config[p] for p in pos))
                for factor, pos in zip(factors, positions)
            ]
        )
    return SymbolicFactor(scope, cards, entries)


def _eliminate(circuit, factor, name, mode):
    axis = factor.scope.index(name)
    scope = tuple(v for v in factor.scope if v != name)
    cards = tuple(c for i, c in enumerate(factor.cards) if i != axis)
    combine = circuit.add_sum if mode == "sum" else circuit.add_max
    entries = np.empty(cards, dtype=object)
    for config in iter_product(*(range(c) for c in cards)):
        entries[config] = combine(
            [
                factor.entry(config[:axis] + (state,) + config[axis:])
                for state in range(factor.cards[axis])
            ]
        )
    return SymbolicFactor(scope, cards, entries)


def reference_compile(network, order, mode="sum") -> ArithmeticCircuit:
    """The compiled circuit of ``network`` for ``order``, built checked."""
    circuit = ArithmeticCircuit(name=f"{network.name}_{mode}_ac", dedup=True)
    pool = [_cpt_factor(circuit, cpt) for cpt in network.cpts()]
    for variable in order:
        involved, pool = factors_mentioning(pool, variable)
        if involved:
            product = _multiply(circuit, involved)
            pool.append(_eliminate(circuit, product, variable, mode))
    scalars = [factor.scalar_entry() for factor in pool]
    circuit.set_root(
        circuit.add_product(scalars) if len(scalars) > 1 else scalars[0]
    )
    return circuit
