"""Node definitions for arithmetic circuits.

An arithmetic circuit (AC) is a rooted DAG whose internal nodes are
additions and multiplications (plus maximizations for MPE circuits) and
whose leaves are network parameters ``θ`` and evidence indicators ``λ``
(Figure 1b of the paper). Nodes are stored in an arena inside
:class:`~repro.ac.circuit.ArithmeticCircuit`; the classes here are the
immutable node records.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from enum import Enum


class OpType(Enum):
    """The kinds of AC nodes.

    ``is_leaf`` and ``is_operator`` are plain per-member attributes, set
    once when the enum is created: every circuit build and sweep reads
    them per node.
    """

    SUM = "sum"
    PRODUCT = "product"
    MAX = "max"
    PARAMETER = "parameter"
    INDICATOR = "indicator"

    def __init__(self, value: str) -> None:
        self.is_leaf: bool = value in ("parameter", "indicator")
        self.is_operator: bool = not self.is_leaf


#: Operator types that the hardware generator can emit.
HARDWARE_OPS = (OpType.SUM, OpType.PRODUCT, OpType.MAX)


class Node:
    """A single AC node: an immutable ``__slots__`` record.

    Exactly one of the payload groups is populated, depending on ``op``:

    * operators (``SUM`` / ``PRODUCT`` / ``MAX``): ``children`` holds arena
      indices, all strictly smaller than this node's own index (the arena
      is topologically ordered by construction);
    * ``PARAMETER``: ``value`` holds the real number, ``label`` an optional
      human-readable name such as ``"θ(B=b1|A=a0)"``;
    * ``INDICATOR``: ``variable`` and ``state`` identify the λ variable.

    Equality and hashing ignore ``label``. The constructor validates the
    payload; :func:`_operator_node` is the builder's unchecked path for
    operators over children it issued itself.
    """

    __slots__ = ("op", "children", "value", "variable", "state", "label")

    op: OpType
    children: tuple[int, ...]
    value: float | None
    variable: str | None
    state: int | None
    label: str | None

    def __init__(
        self,
        op: OpType,
        children: tuple[int, ...] = (),
        value: float | None = None,
        variable: str | None = None,
        state: int | None = None,
        label: str | None = None,
    ) -> None:
        if op.is_operator:
            if len(children) < 1:
                raise ValueError(f"{op.value} node needs children")
            if value is not None or variable is not None:
                raise ValueError(f"{op.value} node cannot carry a payload")
        elif op is OpType.PARAMETER:
            if children:
                raise ValueError("parameter node cannot have children")
            if value is None:
                raise ValueError("parameter node needs a value")
            if not (value >= 0.0):
                raise ValueError(
                    f"AC parameters must be non-negative finite numbers, "
                    f"got {value!r}"
                )
        elif op is OpType.INDICATOR:
            if children:
                raise ValueError("indicator node cannot have children")
            if variable is None or state is None:
                raise ValueError("indicator node needs a variable and state")
            if state < 0:
                raise ValueError("indicator state must be non-negative")
        _set_op(self, op)
        _set_children(self, children)
        _set_value(self, value)
        _set_variable(self, variable)
        _set_state(self, state)
        _set_label(self, label)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.op, self.children, self.value, self.variable, self.state)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Node(op={self.op!r}, children={self.children!r}, "
            f"value={self.value!r}, variable={self.variable!r}, "
            f"state={self.state!r}, label={self.label!r})"
        )

    def __reduce__(self) -> tuple:
        # Rebuild through the checked constructor: slot state cannot be
        # restored by attribute assignment on an immutable record.
        return (
            Node,
            (
                self.op,
                self.children,
                self.value,
                self.variable,
                self.state,
                self.label,
            ),
        )

    @property
    def is_leaf(self) -> bool:
        return self.op.is_leaf

    def describe(self) -> str:
        """Short human-readable rendering used in dumps and error messages."""
        if self.op is OpType.PARAMETER:
            return self.label or f"θ={self.value:g}"
        if self.op is OpType.INDICATOR:
            return f"λ({self.variable}={self.state})"
        symbol = {"sum": "+", "product": "*", "max": "max"}[self.op.value]
        return f"{symbol}{list(self.children)}"


_new_node = object.__new__
(
    _set_op,
    _set_children,
    _set_value,
    _set_variable,
    _set_state,
    _set_label,
) = (Node.__dict__[name].__set__ for name in Node.__slots__)


def _operator_node(op: OpType, children: tuple[int, ...]) -> Node:
    """An operator :class:`Node` built without the constructor's checks.

    For :class:`~repro.ac.circuit.ArithmeticCircuit`'s builder paths
    only: ``op`` is an operator and ``children`` is a non-empty tuple of
    indices the builder itself issued, so there is nothing to validate.
    """
    node = _new_node(Node)
    _set_op(node, op)
    _set_children(node, children)
    _set_value(node, None)
    _set_variable(node, None)
    _set_state(node, None)
    _set_label(node, None)
    return node
