"""Variable elimination orderings.

Good orderings keep the intermediate factors — and therefore the compiled
circuit — small. Min-fill is the default; min-degree is provided as a
cheaper alternative and for ablations. Min-fill runs on plain adjacency
sets with incrementally maintained fill-in counts; the other helpers
work on the networkx moral graph.
"""

from __future__ import annotations

import networkx as nx

from ..bn.network import BayesianNetwork


def _moral_adjacency(network: BayesianNetwork) -> dict[str, set[str]]:
    """Variable → neighbours in the moral graph (each CPT scope a clique)."""
    adjacency: dict[str, set[str]] = {
        name: set() for name in network.variable_names
    }
    for cpt in network.cpts():
        scope = [v.name for v in cpt.scope]
        for name in scope:
            adjacency[name].update(scope)
    for name, neighbors in adjacency.items():
        neighbors.discard(name)
    return adjacency


def moral_graph(network: BayesianNetwork) -> nx.Graph:
    """The moralized, undirected interaction graph of the network."""
    return nx.from_dict_of_lists(_moral_adjacency(network))


def _eliminate_node(graph: nx.Graph, node: str) -> None:
    neighbors = list(graph.neighbors(node))
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1 :]:
            graph.add_edge(a, b)
    graph.remove_node(node)


def _scope_counts(network: BayesianNetwork) -> dict[str, int]:
    """How many CPT scopes mention each variable.

    Used as a min-fill tie-break: a variable in few scopes involves few
    factors when eliminated, producing fewer product nodes in the
    compiled circuit (e.g. Naive Bayes features before the class).
    """
    counts = {name: 0 for name in network.variable_names}
    for cpt in network.cpts():
        for variable in cpt.scope:
            counts[variable.name] += 1
    return counts


def _fill_in(adjacency: dict[str, set[str]], node: str) -> int:
    """Number of edges elimination of ``node`` would add.

    Each edge among the neighbours shows up in two of the neighbours'
    intersections with the neighbourhood, so the edges present number
    half their sum.
    """
    neighbors = adjacency[node]
    degree = len(neighbors)
    present = sum(
        map(len, map(neighbors.intersection, map(adjacency.get, neighbors)))
    )
    return (degree * (degree - 1) - present) // 2


def min_fill_order(network: BayesianNetwork) -> tuple[str, ...]:
    """Greedy min-fill elimination order.

    Ties break by scope count (see :func:`_scope_counts`), then by name
    for determinism.

    Each variable's ``(fill-in, scope count, name)`` key is cached and,
    after an elimination, recomputed only within two hops of the
    eliminated variable. Its neighbours' neighbourhoods change; a
    variable two hops away keeps its neighbourhood, but a fill edge
    between two of its neighbours lowers its fill-in. Farther variables
    see neither, so their keys stay valid.
    """
    adjacency = _moral_adjacency(network)
    scopes = _scope_counts(network)
    keys = {
        node: (_fill_in(adjacency, node), scopes[node], node)
        for node in adjacency
    }
    order = []
    while keys:
        best = min(keys.values())[2]
        order.append(best)
        del keys[best]
        neighbors = adjacency.pop(best)
        affected = set(neighbors)
        for node in neighbors:
            adjacent = adjacency[node]
            adjacent.discard(best)
            adjacent |= neighbors
            adjacent.discard(node)
            affected |= adjacent
        for node in affected:
            keys[node] = (_fill_in(adjacency, node), scopes[node], node)
    return tuple(order)


def min_degree_order(network: BayesianNetwork) -> tuple[str, ...]:
    """Greedy min-degree elimination order (ties broken by name)."""
    graph = moral_graph(network)
    order = []
    while graph.number_of_nodes():
        best = min(graph.nodes, key=lambda n: (graph.degree(n), n))
        order.append(best)
        _eliminate_node(graph, best)
    return tuple(order)


def induced_width(network: BayesianNetwork, order: tuple[str, ...]) -> int:
    """Induced width (treewidth upper bound) of an elimination order."""
    graph = moral_graph(network)
    width = 0
    for node in order:
        width = max(width, graph.degree(node))
        _eliminate_node(graph, node)
    return width


def validate_order(network: BayesianNetwork, order: tuple[str, ...]) -> None:
    """Check that ``order`` is a permutation of the network's variables."""
    if sorted(order) != sorted(network.variable_names):
        raise ValueError(
            "elimination order must mention every network variable exactly "
            "once"
        )
