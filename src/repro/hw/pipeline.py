"""Pipeline scheduling and register balancing (§3.4, Figure 4).

The generated hardware is fully parallel and fully pipelined: every
operator output is registered, and a new set of indicator inputs can be
accepted every cycle. Operators are assigned to stages by longest-path
depth; whenever an operator's input was produced more than one stage
earlier, extra *balancing registers* are inserted on that path (the
paper's "mismatch in path timings", e.g. the A→G path of Figure 4).

θ parameters are hardware constants — they need no alignment registers.
λ indicator words are registered at stage 0 and delayed like any other
signal.

Stage assignment is **tape-native**: the dependency levels the engine's
:class:`~repro.engine.analysis.ForwardSchedule` computes for vectorized
analysis sweeps are exactly the stage boundaries a fully pipelined
mapping needs (constants and λ leaves at level 0, each operator one
level after its latest input — constants sit at level 0, so they impose
no constraint), so this module reads the cached schedule instead of
re-walking nodes, and register accounting sums the forward datapath
program's per-port delay table. One source of levelization and delay
truth for analysis, netlist, Verilog and both simulators.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ac.circuit import ArithmeticCircuit
from ..ac.nodes import OpType
from ..errors import NonBinaryCircuitError
from .program import forward_program


@dataclass(frozen=True)
class PipelineSchedule:
    """Stage assignment and register accounting for a binary circuit."""

    stages: tuple[int, ...]
    latency: int
    operator_registers: int
    input_registers: int
    balance_registers: int

    @property
    def total_registers(self) -> int:
        return (
            self.operator_registers
            + self.input_registers
            + self.balance_registers
        )


def schedule_pipeline(circuit: ArithmeticCircuit) -> PipelineSchedule:
    """Assign pipeline stages and count every register in the design.

    Stage 0 holds the registered λ input words; an operator is scheduled
    one stage after its latest-arriving input. A child signal produced at
    stage ``c`` and consumed by an operator at stage ``s`` crosses
    ``s - 1 - c`` extra balancing registers (constants excepted).

    The schedule is read off the circuit's forward
    :class:`~repro.hw.program.DatapathProgram`, whose stages are the
    tape's cached :class:`~repro.engine.analysis.ForwardSchedule`
    dependency levels (byte-equal: a binary circuit's tape has one op per
    operator node and slot indices coincide with node indices) and whose
    per-port delay table is the one the Verilog emitter and the per-cycle
    simulator read.
    """
    if not circuit.is_binary:
        raise NonBinaryCircuitError(
            "pipeline scheduling requires a binary circuit; apply "
            "repro.ac.transform.binarize first"
        )
    # The root is the forward program's one output, at the design
    # latency, so it needs no alignment registers: balance_registers
    # counts input paths only.
    program = forward_program(circuit)
    return PipelineSchedule(
        stages=tuple(program.levels.tolist()),
        latency=program.latency,
        operator_registers=program.operator_registers,
        input_registers=program.input_registers,
        balance_registers=program.balance_registers,
    )


def delay_of_edge(
    schedule: PipelineSchedule,
    circuit: ArithmeticCircuit,
    child: int,
    parent: int,
) -> int:
    """Balancing registers on the child→parent path (0 for constants)."""
    if circuit.node(child).op is OpType.PARAMETER:
        return 0
    return schedule.stages[parent] - 1 - schedule.stages[child]
