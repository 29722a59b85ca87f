"""Verilog RTL emission for generated hardware designs (§3.4).

The emitter prints a self-contained Verilog file:

* a small library of parameterized operator modules — fixed-point
  add/mult/max with round-to-nearest-even, and behavioral normalized
  floating-point add/mult/max (guard/round/sticky rounding, exact-zero
  encoding, no subnormals/inf/NaN, matching
  :mod:`repro.arith.floatingpoint` bit for bit);
* one flat top-level module per design: λ indicator bits in, one result
  word out, fully pipelined with an output register per operator and
  explicit balancing registers per input port.

The top module is printed from the same
:class:`~repro.hw.program.DatapathProgram` both simulators execute, so
the simulators' equivalence checks (see :mod:`repro.hw.verify`) cover
the emitted netlist topology — forward evaluation datapaths and
backward-pass marginal accelerators alike (the latter emit one aligned
result port per λ leaf). Operator modules mirror the Python golden
models; ProbLP's max/min-value analysis guarantees the exponent/integer
ranges can't over- or underflow in these datapaths.
"""

from __future__ import annotations

from ..engine.tape import OP_COPY, OP_MAX, OP_PRODUCT, OP_SUM
from .netlist import HardwareDesign

_FIXED_LIBRARY = """
// ---------------------------------------------------------------------
// Fixed-point operator library (unsigned, WIDTH = I + F bits).
// Multiplication rounds to nearest-even; addition is exact (ProbLP's
// max-value analysis sizes I so that no overflow can occur).
// ---------------------------------------------------------------------
module problp_fixed_add #(
    parameter WIDTH = 16
) (
    input  wire             clk,
    input  wire [WIDTH-1:0] a,
    input  wire [WIDTH-1:0] b,
    output reg  [WIDTH-1:0] y
);
    always @(posedge clk) y <= a + b;
endmodule

module problp_fixed_mult #(
    parameter WIDTH = 16,
    parameter FRAC  = 15  // must be >= 2
) (
    input  wire             clk,
    input  wire [WIDTH-1:0] a,
    input  wire [WIDTH-1:0] b,
    output reg  [WIDTH-1:0] y
);
    wire [2*WIDTH-1:0] product   = a * b;
    wire [WIDTH-1:0]   truncated = product[FRAC+WIDTH-1:FRAC];
    wire               guard     = product[FRAC-1];
    wire               sticky    = |product[FRAC-2:0];
    wire               round_up  = guard & (sticky | truncated[0]);
    always @(posedge clk) y <= truncated + {{(WIDTH-1){1'b0}}, round_up};
endmodule

module problp_fixed_max #(
    parameter WIDTH = 16
) (
    input  wire             clk,
    input  wire [WIDTH-1:0] a,
    input  wire [WIDTH-1:0] b,
    output reg  [WIDTH-1:0] y
);
    always @(posedge clk) y <= (a >= b) ? a : b;
endmodule
"""

_FLOAT_LIBRARY = """
// ---------------------------------------------------------------------
// Normalized floating-point operator library (sign-less, WORD = E + M).
// Word layout: [WORD-1:M] biased exponent (0 encodes the value zero),
// [M-1:0] mantissa fraction with hidden leading one. Round to nearest
// even on an exact wide intermediate (guard + sticky), no subnormals,
// no inf/NaN: ProbLP range analysis guarantees in-range results.
// ---------------------------------------------------------------------
module problp_float_add #(
    parameter EXP = 8,
    parameter MAN = 14
) (
    input  wire               clk,
    input  wire [EXP+MAN-1:0] a,
    input  wire [EXP+MAN-1:0] b,
    output reg  [EXP+MAN-1:0] y
);
    localparam WORD = EXP + MAN;
    localparam WIDE = 2*MAN + 5;      // {carry, M+1 mantissa, M+3 tail}
    localparam TAIL = MAN + 3;

    wire [EXP-1:0] ea = a[WORD-1:MAN];
    wire [EXP-1:0] eb = b[WORD-1:MAN];
    wire           a_zero = (ea == {EXP{1'b0}});
    wire           b_zero = (eb == {EXP{1'b0}});
    wire [MAN:0]   ma = {1'b1, a[MAN-1:0]};
    wire [MAN:0]   mb = {1'b1, b[MAN-1:0]};

    wire           a_ge    = (ea >= eb);
    wire [EXP-1:0] e_big   = a_ge ? ea : eb;
    wire [MAN:0]   m_big   = a_ge ? ma : mb;
    wire [MAN:0]   m_small = a_ge ? mb : ma;
    wire [EXP-1:0] ediff   = a_ge ? (ea - eb) : (eb - ea);

    // Exact alignment within a TAIL-bit window; larger shifts collapse
    // to a sticky crumb (cannot influence nearest-even any other way).
    wire           far         = (ediff > TAIL);
    wire [WIDE-1:0] big_wide   = {1'b0, m_big, {TAIL{1'b0}}};
    wire [WIDE-1:0] small_wide = far ? {{(WIDE-1){1'b0}}, 1'b1}
                               : ({1'b0, m_small, {TAIL{1'b0}}} >> ediff[$clog2(TAIL+1):0]);
    wire [WIDE-1:0] sum_wide   = big_wide + small_wide;

    integer p;
    reg [WIDE-1:0] rem;
    reg [MAN+1:0]  mant;
    reg            guard_bit, sticky_bit;
    reg signed [EXP+1:0] e_res;
    reg [WORD-1:0] result;
    always @* begin
        // Normalize: locate the most significant one.
        p = WIDE - 1;
        while (p > 0 && !sum_wide[p]) p = p - 1;
        mant = sum_wide >> (p - MAN);
        rem = sum_wide & ((({{(WIDE-1){1'b0}}, 1'b1}) << (p - MAN)) - 1);
        guard_bit = rem[p-MAN-1];
        sticky_bit = |(rem & ((({{(WIDE-1){1'b0}}, 1'b1}) << (p - MAN - 1)) - 1));
        if (guard_bit & (sticky_bit | mant[0])) mant = mant + 1;
        e_res = $signed({2'b00, e_big}) + p - (2*MAN + 3);
        if (mant[MAN+1]) begin               // rounding carried out
            mant = mant >> 1;
            e_res = e_res + 1;
        end
        result = {e_res[EXP-1:0], mant[MAN-1:0]};
        if (a_zero) result = b;
        if (b_zero) result = a;
        if (a_zero & b_zero) result = {WORD{1'b0}};
    end
    always @(posedge clk) y <= result;
endmodule

module problp_float_mult #(
    parameter EXP = 8,
    parameter MAN = 14
) (
    input  wire               clk,
    input  wire [EXP+MAN-1:0] a,
    input  wire [EXP+MAN-1:0] b,
    output reg  [EXP+MAN-1:0] y
);
    localparam WORD = EXP + MAN;
    localparam BIAS = (1 << (EXP - 1)) - 1;

    wire [EXP-1:0] ea = a[WORD-1:MAN];
    wire [EXP-1:0] eb = b[WORD-1:MAN];
    wire           any_zero = (ea == {EXP{1'b0}}) | (eb == {EXP{1'b0}});
    wire [MAN:0]   ma = {1'b1, a[MAN-1:0]};
    wire [MAN:0]   mb = {1'b1, b[MAN-1:0]};
    wire [2*MAN+1:0] product = ma * mb;   // MSB at 2*MAN+1 or 2*MAN

    reg [MAN+1:0]  mant;
    reg            guard_bit, sticky_bit;
    reg signed [EXP+1:0] e_res;
    reg [WORD-1:0] result;
    always @* begin
        e_res = $signed({2'b00, ea}) + $signed({2'b00, eb}) - BIAS;
        if (product[2*MAN+1]) begin
            mant = product[2*MAN+1:MAN];
            guard_bit = product[MAN-1];
            sticky_bit = |product[MAN-2:0];
            e_res = e_res + 1;
        end else begin
            mant = product[2*MAN:MAN-1];
            guard_bit = product[MAN-2];
            sticky_bit = |product[MAN-3:0];
        end
        if (guard_bit & (sticky_bit | mant[0])) mant = mant + 1;
        if (mant[MAN+1]) begin
            mant = mant >> 1;
            e_res = e_res + 1;
        end
        result = any_zero ? {WORD{1'b0}} : {e_res[EXP-1:0], mant[MAN-1:0]};
    end
    always @(posedge clk) y <= result;
endmodule

module problp_float_max #(
    parameter EXP = 8,
    parameter MAN = 14
) (
    input  wire               clk,
    input  wire [EXP+MAN-1:0] a,
    input  wire [EXP+MAN-1:0] b,
    output reg  [EXP+MAN-1:0] y
);
    // Biased-exponent-then-mantissa ordering equals numeric ordering for
    // normalized sign-less words, and the zero word is the minimum.
    always @(posedge clk) y <= (a >= b) ? a : b;
endmodule
"""


def _word_literal(width: int, value: int) -> str:
    return f"{width}'h{value:0{(width + 3) // 4}x}"


def _library_text(fixed: bool, rounding) -> str:
    """Operator library for the design's rounding mode.

    Truncation drops the round-up logic: the wide result's low bits are
    simply discarded, matching :class:`repro.arith.rounding.RoundingMode`
    ``TRUNCATE`` semantics (and the doubled error constant the analysis
    charges for it).
    """
    from ..arith.rounding import RoundingMode

    text = _FIXED_LIBRARY if fixed else _FLOAT_LIBRARY
    if rounding is not RoundingMode.TRUNCATE:
        return text
    if fixed:
        return text.replace(
            "    wire               round_up  = guard & (sticky | truncated[0]);",
            "    wire               round_up  = 1'b0;  // truncation mode",
        )
    return text.replace(
        "        if (guard_bit & (sticky_bit | mant[0])) mant = mant + 1;",
        "        // truncation mode: discard guard/sticky bits",
    )


def emit_verilog(design: HardwareDesign) -> str:
    """Emit the full RTL file for a hardware design.

    Walks the design's :class:`~repro.hw.program.DatapathProgram` — the
    same schedule-shared structure both simulators execute — so forward
    and backward-pass designs print through one path. Wire names keep the
    seed convention (slot indices coincide with circuit node indices on
    forward designs): ``n<slot>_r`` for λ registers, ``n<slot>_y`` for
    operator outputs, ``C<slot>`` for θ constants, ``d<slot>_<port>_<k>``
    for balancing registers, ``o<index>_<k>`` for output alignment.
    """
    program = design.program
    width = design.word_bits
    fixed = design.is_fixed

    if fixed and design.fmt.fraction_bits < 2:
        raise ValueError(
            "the emitted fixed-point multiplier requires at least 2 "
            "fraction bits (ProbLP's search starts at 2)"
        )
    if not fixed and design.fmt.mantissa_bits < 3:
        raise ValueError(
            "the emitted float operators require at least 3 mantissa bits"
        )

    lines: list[str] = []
    out = lines.append
    fmt_text = design.fmt.describe()
    counts = program.operator_counts
    out("// ------------------------------------------------------------------")
    out(f"// Generated by ProbLP: module {design.module_name}")
    workload = "marginals (backward pass)" if design.is_marginal else "joint"
    out(f"// Workload: {workload}  |  outputs: {len(program.output_slots)}")
    out(f"// Format: {fmt_text}  |  word width: {width} bits")
    out(
        f"// Operators: {counts.adders} add, {counts.multipliers} mult, "
        f"{counts.max_units} max"
    )
    out(
        f"// Pipeline: latency {design.latency_cycles} cycles, "
        f"{program.total_registers} registers "
        f"({program.operator_registers} operator + "
        f"{program.input_registers} input + "
        f"{program.balance_registers} balancing)"
    )
    out("// Throughput: one AC evaluation per clock cycle.")
    out(f"// Rounding: {design.fmt.rounding.value}")
    out("// ------------------------------------------------------------------")
    out(_library_text(fixed, design.fmt.rounding))

    # ------------------------------------------------------------------
    # Top module
    # ------------------------------------------------------------------
    indicator_slots = [int(slot) for slot in program.indicator_slots]
    port_names = {
        slot: f"lambda_{variable}_{state}"
        for slot, (variable, state) in zip(
            indicator_slots, program.indicator_keys
        )
    }
    out(f"module {design.module_name} (")
    out("    input  wire clk,")
    for slot in indicator_slots:
        out(f"    input  wire {port_names[slot]},")
    for position, name in enumerate(program.output_names):
        comma = "," if position < len(program.output_names) - 1 else ""
        out(f"    output wire [{width - 1}:0] {name}{comma}")
    out(");")
    out(f"    localparam [{width - 1}:0] WORD_ONE  = "
        f"{_word_literal(width, design.one_word)};")
    out(f"    localparam [{width - 1}:0] WORD_ZERO = "
        f"{_word_literal(width, design.zero_word)};")
    out("")
    out("    // θ parameter constants (quantized to the target format)")
    labels = dict(
        zip((int(s) for s in program.param_slots), program.param_labels)
    )
    values = dict(
        zip((int(s) for s in program.param_slots), program.param_values)
    )
    for slot, word in sorted(design.constant_words.items()):
        out(
            f"    localparam [{width - 1}:0] C{slot} = "
            f"{_word_literal(width, word)};  // {labels[slot]} = "
            f"{float(values[slot]):.6g}"
        )
    out("")
    out("    // Stage-0 registers for λ indicator words")
    for slot in indicator_slots:
        out(f"    reg [{width - 1}:0] n{slot}_r;")
        out(
            f"    always @(posedge clk) n{slot}_r <= "
            f"{port_names[slot]} ? WORD_ONE : WORD_ZERO;"
        )
    out("")
    out("    // Balancing registers (path-timing alignment, Figure 4)")
    source_expr: dict[int, str] = {
        int(slot): f"C{int(slot)}" for slot in program.param_slots
    }
    for slot in indicator_slots:
        source_expr[slot] = f"n{slot}_r"
    for dest in program.dests:
        source_expr[int(dest)] = f"n{int(dest)}_y"

    def emit_chain(source: int, depth: int, stem: str) -> str:
        """Print a delay chain and return its tail expression."""
        previous = source_expr[source]
        for k in range(1, depth + 1):
            name = f"{stem}_{k}"
            out(f"    reg [{width - 1}:0] {name};")
            out(f"    always @(posedge clk) {name} <= {previous};")
            previous = name
        return previous

    port_expr: dict[tuple[int, int], str] = {}
    for (opcode, dest, left, right), delays in zip(
        program.op_tuples, program.port_delays.tolist()
    ):
        ports = ((0, left),) if opcode == OP_COPY else ((0, left), (1, right))
        for port, source in ports:
            depth = delays[port]
            if depth <= 0:
                port_expr[(dest, port)] = source_expr[source]
            else:
                port_expr[(dest, port)] = emit_chain(
                    source, depth, f"d{dest}_{port}"
                )
    out("")
    out("    // Pipelined operators (output registers inside the modules)")
    prefix = "problp_fixed" if fixed else "problp_float"
    if fixed:
        mult_param = f"#(.WIDTH({width}), .FRAC({design.fmt.fraction_bits}))"
        other_param = f"#(.WIDTH({width}))"
    else:
        shared = (
            f"#(.EXP({design.fmt.exponent_bits}), "
            f".MAN({design.fmt.mantissa_bits}))"
        )
        mult_param = other_param = shared
    kind_of = {OP_SUM: "add", OP_PRODUCT: "mult", OP_MAX: "max"}
    for opcode, dest, left, right in program.op_tuples:
        if opcode == OP_COPY:
            # Degenerate fan-in-1 operator: a plain pipeline register.
            out(f"    reg [{width - 1}:0] n{dest}_y;")
            out(
                f"    always @(posedge clk) n{dest}_y <= "
                f"{port_expr[(dest, 0)]};"
            )
            continue
        kind = kind_of[opcode]
        param = mult_param if kind == "mult" else other_param
        a = port_expr[(dest, 0)]
        b = port_expr[(dest, 1)]
        out(f"    wire [{width - 1}:0] n{dest}_y;")
        out(
            f"    {prefix}_{kind} {param} u{dest} "
            f"(.clk(clk), .a({a}), .b({b}), .y(n{dest}_y));"
        )
    out("")
    if design.is_marginal:
        out("    // Output alignment registers (all results in one cycle)")
    for index, name in enumerate(program.output_names):
        slot = int(program.output_slots[index])
        depth = program.output_delay(index)
        expr = (
            emit_chain(slot, depth, f"o{index}")
            if depth > 0
            else source_expr[slot]
        )
        out(f"    assign {name} = {expr};")
    out("endmodule")
    return "\n".join(lines) + "\n"
