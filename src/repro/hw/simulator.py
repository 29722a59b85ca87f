"""Cycle-accurate simulation of generated hardware (the slow oracle).

The simulator executes the *same* structural description the Verilog
emitter prints — the design's :class:`~repro.hw.program.DatapathProgram`
with its operator output registers, balancing-register chains and output
alignment chains — one Python object per operator per cycle, with the
quantized arithmetic backends as the operator semantics. This validates
the two properties post-synthesis simulation establishes for the paper:
functional correctness of the pipelined netlist (register balancing
included) and bit-exactness of the quantized operators, at full
throughput of one evaluation per cycle.

Uninitialized registers hold ``None`` (the simulation analogue of
Verilog's ``X``); any operation on ``X`` yields ``X``, so the test that
outputs become valid exactly after ``latency`` cycles is meaningful.

This per-cycle sweep is the hardware layer's differential-test oracle —
the specification the vectorized :class:`~repro.hw.stream.StreamSimulator`
is pinned bit-identical to. Long-stream verification should use the
stream simulator; this one costs one Python dispatch per operator per
cycle by design.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..arith.fixedpoint import FixedPointBackend
from ..arith.floatingpoint import FloatBackend
from ..engine.encoder import EvidenceEncoder
from ..engine.tape import OP_COPY, OP_PRODUCT, OP_SUM
from .netlist import HardwareDesign


class PipelineSimulator:
    """Simulate a :class:`HardwareDesign` cycle by cycle."""

    def __init__(self, design: HardwareDesign) -> None:
        self.design = design
        self.circuit = design.circuit
        self.program = design.program
        self.backend = (
            FixedPointBackend(design.fmt)
            if design.is_fixed
            else FloatBackend(design.fmt)
        )
        self.encoder = EvidenceEncoder(self.program.indicator_keys)
        self._constants: dict[int, Any] = {
            int(slot): self.backend.from_real(float(value))
            for slot, value in zip(
                self.program.param_slots, self.program.param_values
            )
        }
        self._indicator_slots = [
            int(slot) for slot in self.program.indicator_slots
        ]
        self._ops = self.program.op_tuples
        # Balancing delay chains keyed by (dest, port) — one chain per
        # operator input port, exactly as the Verilog emitter instantiates
        # them (and as the program counts them). Output alignment chains
        # are keyed by (-1 - output_index, 0).
        self._delay_chains: dict[tuple[int, int], list[Any]] = {}
        self._chain_sources: dict[tuple[int, int], int] = {}
        for (_opcode, dest, left, right), delays in zip(
            self._ops, self.program.port_delays.tolist()
        ):
            for port, source in ((0, left), (1, right)):
                depth = delays[port]
                if depth > 0:
                    self._delay_chains[(dest, port)] = [None] * depth
                    self._chain_sources[(dest, port)] = source
        self._output_slots = [int(s) for s in self.program.output_slots]
        for index, slot in enumerate(self._output_slots):
            depth = self.program.output_delay(index)
            if depth > 0:
                key = (-1 - index, 0)
                self._delay_chains[key] = [None] * depth
                self._chain_sources[key] = slot
        self.reset()

    def reset(self) -> None:
        """Clear all registers to X and the cycle counter to zero."""
        self._registers: dict[int, Any] = {
            index: None
            for index in self._indicator_slots
            + [op[1] for op in self._ops]
        }
        for key in self._delay_chains:
            self._delay_chains[key] = [None] * len(self._delay_chains[key])
        self.cycle = 0

    # ------------------------------------------------------------------
    def _source_value(self, source: int, dest: int, port: int) -> Any:
        """Value seen at ``dest``'s input ``port`` this cycle (pre-edge)."""
        constant = self._constants.get(source)
        if constant is not None:
            return constant
        chain = self._delay_chains.get((dest, port))
        if chain is not None:
            return chain[-1]
        return self._registers[source]

    def _compute(self, opcode: int, dest: int, left: int, right: int) -> Any:
        left_value = self._source_value(left, dest, 0)
        if opcode == OP_SUM:
            right_value = self._source_value(right, dest, 1)
            if left_value is None or right_value is None:
                return None  # X propagation
            return self.backend.add(left_value, right_value)
        if opcode == OP_PRODUCT:
            right_value = self._source_value(right, dest, 1)
            if left_value is None or right_value is None:
                return None
            return self.backend.multiply(left_value, right_value)
        if opcode == OP_COPY:
            return left_value  # register pass-through
        right_value = self._source_value(right, dest, 1)
        if left_value is None or right_value is None:
            return None
        return self.backend.maximum(left_value, right_value)

    def step(self, evidence: Mapping[str, int] | None) -> Any:
        """Advance one clock cycle.

        ``evidence`` is the λ assignment presented at the inputs during
        this cycle (``None`` presents X). Returns the first output's
        register value *after* the clock edge — for forward designs the
        root result of the evidence presented ``latency`` cycles earlier,
        or ``None`` while the pipe fills.
        """
        # Combinational phase: everything reads pre-edge register state.
        new_registers: dict[int, Any] = {}
        if evidence is None:
            for index in self._indicator_slots:
                new_registers[index] = None
        else:
            active = self.encoder.encode_one(evidence, strict=True)
            one, zero = self.backend.one(), self.backend.zero()
            for position, index in enumerate(self._indicator_slots):
                new_registers[index] = one if active[position] else zero
        for opcode, dest, left, right in self._ops:
            new_registers[dest] = self._compute(opcode, dest, left, right)
        new_chains = {
            key: [self._tap(self._chain_sources[key])] + chain[:-1]
            for key, chain in self._delay_chains.items()
        }
        # Clock edge: commit simultaneously.
        self._registers.update(new_registers)
        self._delay_chains = new_chains
        self.cycle += 1
        return self.output_value(0)

    def _tap(self, source: int) -> Any:
        """Pre-edge value entering a delay chain from ``source``."""
        constant = self._constants.get(source)
        if constant is not None:
            return constant
        return self._registers[source]

    def output_value(self, index: int) -> Any:
        """Post-edge value of output ``index`` (alignment chains included)."""
        if index >= len(self._output_slots):
            return None  # degenerate design without outputs
        chain = self._delay_chains.get((-1 - index, 0))
        if chain is not None:
            return chain[-1]
        slot = self._output_slots[index]
        constant = self._constants.get(slot)
        if constant is not None:
            return constant
        return self._registers.get(slot)

    def output_values(self) -> tuple[Any, ...]:
        """Post-edge values of every output, in program output order."""
        return tuple(
            self.output_value(index)
            for index in range(len(self._output_slots))
        )

    # ------------------------------------------------------------------
    def run_stream(
        self, evidence_stream: list[Mapping[str, int]]
    ) -> list[float]:
        """Feed one evidence per cycle; return the aligned root outputs.

        Output ``i`` corresponds to ``evidence_stream[i]``. The pipeline
        is flushed with idle cycles at the end, demonstrating full
        throughput: ``len(stream) + latency`` cycles total.
        """
        latency = self.design.latency_cycles
        outputs: list[float] = []
        raw: list[Any] = []
        for evidence in evidence_stream:
            raw.append(self.step(evidence))
        for _ in range(latency):
            raw.append(self.step(None))
        for index in range(len(evidence_stream)):
            value = raw[index + latency]
            if value is None:
                raise RuntimeError(
                    f"pipeline output {index} was X after {latency} cycles; "
                    f"register balancing is broken"
                )
            outputs.append(self.backend.to_real(value))
        return outputs

    def run_stream_outputs(
        self, evidence_stream: list[Mapping[str, int]]
    ) -> dict[tuple[str, int] | None, list[float]]:
        """Aligned values of *every* output for a full-rate stream.

        Returns ``{output_key: [value per stream position]}`` — for
        marginal designs one entry per λ leaf keyed ``(variable, state)``,
        for forward designs a single ``None``-keyed root entry.
        """
        latency = self.design.latency_cycles
        raw: list[tuple[Any, ...]] = []
        for evidence in evidence_stream:
            self.step(evidence)
            raw.append(self.output_values())
        for _ in range(latency):
            self.step(None)
            raw.append(self.output_values())
        results: dict[tuple[str, int] | None, list[float]] = {
            key: [] for key in self.program.output_keys
        }
        for index in range(len(evidence_stream)):
            values = raw[index + latency]
            for key, value in zip(self.program.output_keys, values):
                if value is None:
                    raise RuntimeError(
                        f"pipeline output {key} of vector {index} was X "
                        f"after {latency} cycles; register balancing is "
                        f"broken"
                    )
                results[key].append(self.backend.to_real(value))
        return results
