"""Structural transformations of arithmetic circuits.

The central transform is :func:`binarize`, which decomposes every n-ary
operator into a tree of two-input operators — the first stage of the
paper's hardware generation (Figure 4) and a precondition for quantized
evaluation and error-bound analysis. ``strategy="balanced"`` builds
minimum-depth trees (shallower pipelines, smaller float error constants);
``strategy="chain"`` builds left-to-right chains, provided for the
ablation study on decomposition shape.

Transforms build their result through the
:class:`~repro.ac.circuit.ArithmeticCircuit` builder, so it carries the
same CSE sharing and stored O(1) facts (``is_binary``, ``stats()``,
``depths()``) as any other circuit. ``binarize`` emits each two-input
operator through the builder's pair path: the same node sequence as the
n-ary ``add_*`` calls, without their per-call coercion and range checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import ArithmeticCircuit
from .nodes import OpType


@dataclass(frozen=True)
class TransformResult:
    """A transformed circuit plus the old-index → new-index mapping."""

    circuit: ArithmeticCircuit
    node_map: dict[int, int]

    @property
    def root(self) -> int:
        return self.circuit.root


def _combine(
    circuit: ArithmeticCircuit,
    op: OpType,
    children: list[int],
    strategy: str,
) -> int:
    """Reduce ``children`` to one node with a tree of 2-input ``op`` nodes.

    ``children`` are indices ``circuit`` handed out, so each pair takes
    the builder's unchecked two-input path.
    """
    add_pair = circuit._add_pair
    if strategy == "chain":
        result = children[0]
        for child in children[1:]:
            result = add_pair(op, result, child)
        return result
    # Balanced: repeatedly pair up adjacent nodes.
    level = children
    while len(level) > 1:
        next_level = [
            add_pair(op, level[i], level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return level[0]


def binarize(
    circuit: ArithmeticCircuit, strategy: str = "balanced"
) -> TransformResult:
    """Decompose all n-ary operators into trees of 2-input operators.

    Only nodes reachable from the root are kept, so this doubles as dead
    code elimination. The result satisfies ``circuit.is_binary``.
    """
    if strategy not in ("balanced", "chain"):
        raise ValueError(f"unknown strategy {strategy!r}")
    reachable = circuit.reachable_from_root()
    result = ArithmeticCircuit(name=f"{circuit.name}_bin", dedup=True)
    add_pair = result._add_pair
    parameter, indicator = OpType.PARAMETER, OpType.INDICATOR
    node_map: dict[int, int] = {}
    for index, node in enumerate(circuit.nodes):
        if index not in reachable:
            continue
        op = node.op
        if op is parameter:
            node_map[index] = result.add_parameter(node.value, node.label)
        elif op is indicator:
            node_map[index] = result.add_indicator(node.variable, node.state)
        elif len(node.children) == 2:
            # Both strategies reduce two children to one pair.
            left, right = node.children
            node_map[index] = add_pair(op, node_map[left], node_map[right])
        else:
            children = [node_map[c] for c in node.children]
            node_map[index] = _combine(result, op, children, strategy)
    result.set_root(node_map[circuit.root])
    return TransformResult(result, node_map)


def prune_unreachable(circuit: ArithmeticCircuit) -> TransformResult:
    """Drop nodes outside the root cone, preserving n-ary structure."""
    reachable = circuit.reachable_from_root()
    result = ArithmeticCircuit(name=circuit.name, dedup=True)
    node_map: dict[int, int] = {}
    for index, node in enumerate(circuit.nodes):
        if index not in reachable:
            continue
        if node.op is OpType.PARAMETER:
            node_map[index] = result.add_parameter(node.value, node.label)
        elif node.op is OpType.INDICATOR:
            node_map[index] = result.add_indicator(node.variable, node.state)
        else:
            children = [node_map[c] for c in node.children]
            if node.op is OpType.SUM:
                node_map[index] = result.add_sum(children)
            elif node.op is OpType.PRODUCT:
                node_map[index] = result.add_product(children)
            else:
                node_map[index] = result.add_max(children)
    result.set_root(node_map[circuit.root])
    return TransformResult(result, node_map)
