"""The arithmetic circuit container.

:class:`ArithmeticCircuit` stores nodes in an append-only arena list that
is topologically ordered by construction: an operator's children must
already exist when the operator is added. This makes every downstream
pass — real and quantized evaluation, bound propagation, extreme-value
analysis, hardware generation — a single forward sweep over
``circuit.nodes``.

The builder performs common-subexpression elimination by default:
structurally identical nodes (same op and children, or same parameter
value) are shared, which mirrors the sharing an AC compiler like ACE
produces. The CSE table is consulted before a :class:`Node` is built, so
a hit costs one dict lookup. The public ``add_*`` methods check what
they are given; the internal pair and n-ary paths, which
:func:`~repro.ac.transform.binarize` and the compiler build through,
take indices this builder issued and skip those checks, including the
:class:`Node` constructor's.

Because the arena only ever grows, the structural facts of a node never
change once it is inserted. The builder records them at insertion — each
node's operator depth, the per-op node counts, the deepest depth and the
largest operator fan-in — so :attr:`ArithmeticCircuit.is_binary`,
:meth:`ArithmeticCircuit.stats` and :meth:`ArithmeticCircuit.depths`
read stored values instead of walking the arena. ``_intern`` and
``add_indicator`` are the only writers of the arena, and both record
the facts of what they append.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .nodes import Node, OpType, _operator_node


@dataclass(frozen=True)
class CircuitStats:
    """Node-count summary of a circuit."""

    num_nodes: int
    num_sums: int
    num_products: int
    num_max: int
    num_parameters: int
    num_indicators: int
    depth: int
    max_fanin: int

    @property
    def num_operators(self) -> int:
        return self.num_sums + self.num_products + self.num_max


class ArithmeticCircuit:
    """A rooted arithmetic circuit over θ parameters and λ indicators."""

    def __init__(self, name: str = "ac", dedup: bool = True) -> None:
        self.name = name
        self._nodes: list[Node] = []
        self._root: int | None = None
        self._dedup = dedup
        #: Stays empty when ``dedup`` is off, so every lookup misses.
        self._cse: dict[tuple, int] = {}
        self._indicators: dict[tuple[str, int], int] = {}
        # Structural facts, recorded as each node is appended. Hot paths
        # key by ``op._value_``, a plain attribute: ``op.value`` is an
        # enum property, and an OpType key hashes in Python code.
        self._depths: list[int] = []
        self._counts: dict[str, int] = {op._value_: 0 for op in OpType}
        self._depth = 0
        self._max_fanin = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _intern(self, key: tuple, node: Node, depth: int = 0) -> int:
        """Append ``node``, whose ``key`` missed the CSE table.

        Records the node's facts: its operator ``depth`` (0 for leaves),
        its op count and its fan-in.
        """
        index = len(self._nodes)
        self._nodes.append(node)
        self._depths.append(depth)
        self._counts[node.op._value_] += 1
        if depth > self._depth:
            self._depth = depth
        fanin = len(node.children)
        if fanin > self._max_fanin:
            self._max_fanin = fanin
        if self._dedup:
            self._cse[key] = index
        return index

    def add_parameter(self, value: float, label: str | None = None) -> int:
        """Add (or reuse) a θ leaf with the given real value."""
        value = float(value)
        key = ("p", value)
        index = self._cse.get(key)
        if index is not None:
            return index
        return self._intern(key, Node(OpType.PARAMETER, value=value, label=label))

    def add_indicator(self, variable: str, state: int) -> int:
        """Add (or reuse) the λ leaf for ``variable = state``."""
        key = (variable, int(state))
        if key in self._indicators:
            return self._indicators[key]
        index = len(self._nodes)
        self._nodes.append(Node(OpType.INDICATOR, variable=variable, state=int(state)))
        self._depths.append(0)
        self._counts["indicator"] += 1
        self._indicators[key] = index
        return index

    def _add_operator(self, op: OpType, children: Sequence[int]) -> int:
        children = tuple(map(int, children))
        if not children:
            raise ValueError(f"{op.value} node needs at least one child")
        size = len(self._nodes)
        if min(children) < 0 or max(children) >= size:
            child = next(c for c in children if not 0 <= c < size)
            raise ValueError(
                f"child index {child} out of range (circuit has {size} nodes)"
            )
        return self._add_nary(op, children)

    def _add_nary(self, op: OpType, children: Sequence[int]) -> int:
        """An ``op`` over a non-empty sequence of indices this circuit issued.

        The path the compiler (:mod:`repro.compile`) builds through: the
        children are Python ints this builder handed out, so they are
        neither coerced nor range-checked again. Equivalent to
        ``_add_operator(op, children)``.
        """
        if len(children) == 1:
            # A unary sum/product/max is the identity; don't materialize it.
            return children[0]
        key = (op._value_, *sorted(children))
        index = self._cse.get(key)
        if index is not None:
            return index
        depth = 1 + max(map(self._depths.__getitem__, children))
        return self._intern(key, _operator_node(op, tuple(children)), depth)

    def _add_pair(self, op: OpType, left: int, right: int) -> int:
        """A two-input ``op`` over indices this circuit handed out.

        The path :func:`~repro.ac.transform.binarize` builds through: the
        indices come from this builder, so they are neither coerced nor
        range-checked again, and the sorted CSE key is looked up before
        any :class:`Node` is built. Equivalent to
        ``_add_operator(op, [left, right])``.
        """
        if left <= right:
            key = (op._value_, left, right)
        else:
            key = (op._value_, right, left)
        index = self._cse.get(key)
        if index is not None:
            return index
        depth = 1 + max(self._depths[left], self._depths[right])
        return self._intern(key, _operator_node(op, (left, right)), depth)

    def add_sum(self, children: Sequence[int]) -> int:
        return self._add_operator(OpType.SUM, children)

    def add_product(self, children: Sequence[int]) -> int:
        return self._add_operator(OpType.PRODUCT, children)

    def add_max(self, children: Sequence[int]) -> int:
        return self._add_operator(OpType.MAX, children)

    def set_root(self, index: int) -> None:
        if not 0 <= index < len(self._nodes):
            raise ValueError(f"root index {index} out of range")
        self._root = index

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    def node(self, index: int) -> Node:
        return self._nodes[index]

    @property
    def root(self) -> int:
        if self._root is None:
            raise ValueError(f"circuit {self.name!r} has no root set")
        return self._root

    @property
    def has_root(self) -> bool:
        return self._root is not None

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def indicators(self) -> dict[tuple[str, int], int]:
        """Mapping ``(variable, state) -> node index`` (copy)."""
        return dict(self._indicators)

    @property
    def indicator_variables(self) -> tuple[str, ...]:
        """Sorted names of all variables with at least one λ leaf."""
        return tuple(sorted({var for var, _ in self._indicators}))

    def indicator_states(self, variable: str) -> tuple[int, ...]:
        """Sorted states of ``variable`` that have λ leaves."""
        return tuple(
            sorted(state for var, state in self._indicators if var == variable)
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def parents_map(self) -> list[list[int]]:
        """For each node, the indices of operators that consume it."""
        parents: list[list[int]] = [[] for _ in self._nodes]
        for index, node in enumerate(self._nodes):
            for child in node.children:
                parents[child].append(index)
        return parents

    def depths(self) -> list[int]:
        """Operator depth of each node (leaves are 0)."""
        return list(self._depths)

    def stats(self) -> CircuitStats:
        counts = self._counts
        return CircuitStats(
            num_nodes=len(self._nodes),
            num_sums=counts["sum"],
            num_products=counts["product"],
            num_max=counts["max"],
            num_parameters=counts["parameter"],
            num_indicators=counts["indicator"],
            depth=self._depth,
            max_fanin=self._max_fanin,
        )

    @property
    def is_binary(self) -> bool:
        """True when every operator has at most two inputs."""
        return self._max_fanin <= 2

    def reachable_from_root(self) -> set[int]:
        """Indices of all nodes in the cone of the root."""
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            stack.extend(self._nodes[index].children)
        return seen

    # ------------------------------------------------------------------
    # Evaluation conveniences (full implementations in evaluate.py)
    # ------------------------------------------------------------------
    def indicator_assignment(
        self, evidence: Mapping[str, int] | None
    ) -> dict[tuple[str, int], float]:
        """λ values for the given evidence.

        Indicators of unobserved variables are 1; for an observed variable
        the matching state's indicator is 1 and the rest are 0. Evidence on
        variables without indicators in this circuit is rejected — it would
        silently not condition anything.
        """
        evidence = dict(evidence or {})
        present = set(self.indicator_variables)
        unknown = set(evidence) - present
        if unknown:
            raise ValueError(
                f"evidence on variables with no indicators in this circuit: "
                f"{sorted(unknown)}"
            )
        values: dict[tuple[str, int], float] = {}
        for (variable, state) in self._indicators:
            if variable in evidence:
                values[(variable, state)] = (
                    1.0 if evidence[variable] == state else 0.0
                )
            else:
                values[(variable, state)] = 1.0
        return values

    def evaluate(self, evidence: Mapping[str, int] | None = None) -> float:
        """Evaluate in exact float64 arithmetic (see :mod:`repro.ac.evaluate`)."""
        from .evaluate import evaluate_real

        return evaluate_real(self, evidence)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ArithmeticCircuit({self.name!r}, {stats.num_nodes} nodes: "
            f"{stats.num_sums}+ {stats.num_products}* {stats.num_max}max, "
            f"{stats.num_parameters}θ {stats.num_indicators}λ, "
            f"depth {stats.depth})"
        )


def topological_check(circuit: ArithmeticCircuit) -> bool:
    """Verify the arena invariant: children precede their parents."""
    return all(
        child < index
        for index, node in enumerate(circuit.nodes)
        for child in node.children
    )
