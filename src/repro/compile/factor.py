"""Symbolic factors: factors whose entries are AC node indices.

Variable elimination over symbolic factors *records* the arithmetic it
would perform instead of executing it, which is exactly how a Bayesian
network is compiled into an arithmetic circuit (Darwiche's construction).
Multiplying factors emits PRODUCT nodes; summing a variable out emits SUM
nodes (or MAX nodes for MPE compilation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..ac.circuit import ArithmeticCircuit
from ..ac.nodes import OpType


@dataclass(frozen=True)
class SymbolicFactor:
    """A table of AC node indices over a sorted scope of variables."""

    scope: tuple[str, ...]
    cards: tuple[int, ...]
    entries: np.ndarray  # dtype=object, shape == cards

    def __post_init__(self) -> None:
        if tuple(sorted(self.scope)) != tuple(self.scope):
            raise ValueError(f"symbolic factor scope must be sorted: {self.scope}")
        if len(self.scope) != len(self.cards):
            raise ValueError("scope and cards length mismatch")
        if self.entries.shape != tuple(self.cards):
            raise ValueError(
                f"entries shape {self.entries.shape} != cards {self.cards}"
            )

    def entry(self, config: tuple[int, ...]) -> int:
        return int(self.entries[config])

    def card_of(self, name: str) -> int:
        return self.cards[self.scope.index(name)]

    @property
    def is_scalar(self) -> bool:
        return not self.scope

    def scalar_entry(self) -> int:
        if not self.is_scalar:
            raise ValueError(f"factor still has scope {self.scope}")
        return int(self.entries[()])


def scalar_factor(node: int) -> SymbolicFactor:
    """Wrap a single AC node as a scope-less factor."""
    entries = np.empty((), dtype=object)
    entries[()] = node
    return SymbolicFactor((), (), entries)


def _entry_table(entries: list[int], cards: tuple[int, ...]) -> np.ndarray:
    """A flat, C-ordered list of node indices as an object table."""
    table = np.empty(len(entries), dtype=object)
    table[:] = entries
    return table.reshape(cards)


def multiply_factors(
    circuit: ArithmeticCircuit, factors: Sequence[SymbolicFactor]
) -> SymbolicFactor:
    """Pointwise product of symbolic factors, emitting PRODUCT nodes.

    For every configuration of the union scope, gathers the matching entry
    of each input factor and emits one (n-ary) product node; later
    binarization decomposes these into 2-input multipliers.

    The entries must be indices ``circuit`` issued (as they are for every
    factor the compiler builds): they go through the builder's unchecked
    n-ary path.
    """
    if not factors:
        raise ValueError("need at least one factor to multiply")
    if len(factors) == 1:
        return factors[0]
    union: dict[str, int] = {}
    for factor in factors:
        for name, card in zip(factor.scope, factor.cards):
            if name in union and union[name] != card:
                raise ValueError(f"inconsistent cardinality for {name!r}")
            union[name] = card
    scope = tuple(sorted(union))
    cards = tuple(union[name] for name in scope)
    # Both scopes are sorted, so a factor's axes already sit in union
    # order: size-1 axes for the names it lacks broadcast it onto the
    # union table, and a C-order ravel lists its entry per configuration.
    columns = []
    for factor in factors:
        shape = [union[name] if name in factor.scope else 1 for name in scope]
        spread = np.broadcast_to(factor.entries.reshape(shape), cards)
        columns.append(spread.ravel().tolist())
    add = circuit._add_nary
    product = OpType.PRODUCT
    entries = [add(product, children) for children in zip(*columns)]
    return SymbolicFactor(scope, cards, _entry_table(entries, cards))


def eliminate_variable(
    circuit: ArithmeticCircuit,
    factor: SymbolicFactor,
    name: str,
    mode: str = "sum",
) -> SymbolicFactor:
    """Sum (or max) a variable out of a symbolic factor.

    Emits one SUM/MAX node per configuration of the remaining scope, with
    one child per state of the eliminated variable. Like
    :func:`multiply_factors`, it builds through the unchecked n-ary path,
    so the entries must be indices ``circuit`` issued.
    """
    if mode not in ("sum", "max"):
        raise ValueError(f"mode must be 'sum' or 'max', got {mode!r}")
    if name not in factor.scope:
        raise ValueError(f"{name!r} not in factor scope {factor.scope}")
    axis = factor.scope.index(name)
    card = factor.cards[axis]
    scope = tuple(v for v in factor.scope if v != name)
    cards = tuple(c for i, c in enumerate(factor.cards) if i != axis)
    op = OpType.SUM if mode == "sum" else OpType.MAX
    add = circuit._add_nary
    # One row per configuration of the remaining scope (C order), holding
    # the entries of the eliminated variable's states in state order.
    rows = np.moveaxis(factor.entries, axis, -1).reshape(-1, card).tolist()
    entries = [add(op, children) for children in rows]
    return SymbolicFactor(scope, cards, _entry_table(entries, cards))


def factors_mentioning(
    factors: Iterable[SymbolicFactor], name: str
) -> tuple[list[SymbolicFactor], list[SymbolicFactor]]:
    """Split factors into (mentioning ``name``, not mentioning it)."""
    involved, rest = [], []
    for factor in factors:
        (involved if name in factor.scope else rest).append(factor)
    return involved, rest
