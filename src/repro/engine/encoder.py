"""Vectorized evidence → indicator-matrix encoding.

Every evaluator needs the same preprocessing step: turn an evidence
assignment (or a whole batch of them) into the 0/1 values of the λ
leaves. :class:`EvidenceEncoder` does it with Python-level work
proportional to the *observations*, not to variables × batch. One pass
over the evidence dicts collects the observed ``(variable, value,
column)`` triples. One scatter marks each ``(variable, column)`` as
observed; gathering that mask onto the indicator rows zeroes every row
of an observed variable in its column. A second scatter sets back the
row each observation names, found by binary search over the sorted
``variable * width + state`` codes of the indicators. Unobserved
variables cost nothing, so a sparse batch-1 query takes a handful of
numpy calls however many variables the circuit has.

Semantics match :meth:`ArithmeticCircuit.indicator_assignment`: an
indicator is active (1) when its variable is unobserved or observed in
its state, inactive (0) otherwise. Indicator states are non-negative
(Node validation), so a negative or unseen observed state zeroes all of
its variable's indicators. ``strict=True`` rejects evidence on
variables without indicators (the scalar evaluators' behavior);
``strict=False`` ignores it (the seed batch evaluators' behavior).
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Mapping, Sequence

import numpy as np


class EvidenceEncoder:
    """Encode evidence batches against a fixed indicator table."""

    def __init__(self, indicator_keys: Sequence[tuple[str, int]]) -> None:
        self.keys = tuple((str(v), int(s)) for v, s in indicator_keys)
        self.num_indicators = len(self.keys)
        self.variables = tuple(sorted({v for v, _ in self.keys}))
        self._index = {v: position for position, v in enumerate(self.variables)}
        # Each indicator row's variable, and the sorted codes
        # ``variable * _width + state`` of the rows an observation can
        # name (states are non-negative), with those rows alongside.
        owners = np.asarray(
            [self._index[v] for v, _ in self.keys], dtype=np.intp
        )
        states = np.asarray([s for _, s in self.keys], dtype=np.int64)
        self._row_owner = owners
        self._width = int(states.max()) + 1 if self.num_indicators else 1
        nameable = np.flatnonzero(states >= 0)
        codes = owners[nameable] * self._width + states[nameable]
        order = np.argsort(codes)
        self._codes = codes[order]
        self._code_rows = nameable[order]
        self._var_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for position, variable in enumerate(self.variables):
            rows = np.flatnonzero(owners == position)
            self._var_rows[variable] = (rows, states[rows])

    @classmethod
    def for_tape(cls, tape) -> "EvidenceEncoder":
        return cls(tape.indicator_keys)

    @classmethod
    def for_circuit(cls, circuit) -> "EvidenceEncoder":
        from .tape import tape_for

        return cls.for_tape(tape_for(circuit))

    # ------------------------------------------------------------------
    def _check_known(
        self, evidence_batch: Sequence[Mapping[str, int]]
    ) -> None:
        unknown = {
            variable
            for evidence in evidence_batch
            for variable in evidence
            if variable not in self._index
        }
        if unknown:
            raise ValueError(
                f"evidence on variables with no indicators in this circuit: "
                f"{sorted(unknown)}"
            )

    def encode(
        self,
        evidence_batch: Sequence[Mapping[str, int]],
        strict: bool = False,
    ) -> np.ndarray:
        """Boolean activity matrix of shape ``(num_indicators, batch)``.

        ``matrix[i, b]`` is True iff indicator ``keys[i]`` has value 1
        under ``evidence_batch[b]``.
        """
        batch = len(evidence_batch)
        get = self._index.get
        owners: list[int] = []  # -1: no indicators
        values: list = []
        for evidence in evidence_batch:
            owners.extend(map(get, evidence, repeat(-1)))
            values.extend(evidence.values())
        if not owners:
            return np.ones((self.num_indicators, batch), dtype=bool)
        owner_ids = np.asarray(owners, dtype=np.intp)
        columns = np.repeat(
            np.arange(batch), [len(evidence) for evidence in evidence_batch]
        )
        unknown = owner_ids < 0
        if unknown.any():
            if strict:
                self._check_known(evidence_batch)  # raises, naming them
            known = ~unknown  # lenient: evidence without indicators is ignored
            values = list(compress(values, known.tolist()))
            owner_ids, columns = owner_ids[known], columns[known]
        states = np.asarray(values, dtype=np.int64)
        # An observed variable zeroes its rows in that column ...
        observed = np.zeros((len(self.variables), batch), dtype=bool)
        observed[owner_ids, columns] = True
        matrix = ~observed[self._row_owner]
        # ... except the row of the observed state, if it has one.
        named = (states >= 0) & (states < self._width)
        codes = owner_ids[named] * self._width + states[named]
        slots = np.searchsorted(self._codes, codes)
        slots[slots == len(self._codes)] = 0
        hit = self._codes[slots] == codes
        matrix[self._code_rows[slots[hit]], columns[named][hit]] = True
        return matrix

    def encode_one(
        self, evidence: Mapping[str, int] | None, strict: bool = True
    ) -> np.ndarray:
        """Boolean activity vector of shape ``(num_indicators,)``.

        Bit-identical to ``encode([evidence])[:, 0]`` but O(observed
        variables) instead of O(all variables) — this sits on the
        batch-size-1 serving hot path, where evidence is sparse.
        """
        if not evidence:
            return np.ones(self.num_indicators, dtype=bool)
        if strict:
            self._check_known([evidence])
        active = np.ones(self.num_indicators, dtype=bool)
        for variable, value in evidence.items():
            rows_states = self._var_rows.get(variable)
            if rows_states is None:
                continue
            rows, states = rows_states
            # Negative evidence matches no indicator (states are ≥ 0),
            # zeroing the variable's rows like the batch encoder.
            active[rows] = states == int(value)
        return active
