"""Combinational simulation semantics."""

import pytest

from oracles import SIMULATORS
from repro.hdl import SimulationError, compile_design, simulate
from repro.hdl.errors import SimulationLimit


def run_expr(expr: str, width: int = 8, **inputs) -> str:
    """Evaluate a Verilog expression through a tiny module + testbench."""
    decls = "\n".join(f"    input [{w - 1}:0] {name},"
                      for name, (w, _) in inputs.items())
    assigns = "\n".join(
        f"    {name} = {w}'d{value & ((1 << w) - 1)};"
        for name, (w, value) in inputs.items())
    regs = "\n".join(f"    reg [{w - 1}:0] {name};"
                     for name, (w, _) in inputs.items())
    conns = ", ".join(f".{name}({name})" for name in inputs)
    conns = conns + (", " if conns else "") + ".out(out)"
    src = f"""
module top_module (
{decls}
    output [{width - 1}:0] out
);
assign out = {expr};
endmodule

module tb;
{regs}
    wire [{width - 1}:0] out;
    top_module dut({conns});
    initial begin
{assigns}
        #10 $display("out=%d", out);
        $finish;
    end
endmodule
"""
    result = simulate(src, "tb")
    assert result.finished
    return result.stdout[-1].split("=")[1]


class TestOperators:
    def test_addition_wraps(self):
        assert run_expr("a + b", 8, a=(8, 200), b=(8, 100)) == "44"

    def test_subtraction_wraps(self):
        assert run_expr("a - b", 8, a=(8, 5), b=(8, 10)) == "251"

    def test_multiplication(self):
        assert run_expr("a * b", 8, a=(8, 12), b=(8, 12)) == "144"

    def test_division(self):
        assert run_expr("a / b", 8, a=(8, 100), b=(8, 7)) == "14"

    def test_modulo(self):
        assert run_expr("a % b", 8, a=(8, 100), b=(8, 7)) == "2"

    def test_division_by_zero_is_x(self):
        assert run_expr("a / b", 8, a=(8, 4), b=(8, 0)) == "x"

    def test_shift_left_drops_bits(self):
        assert run_expr("a << b", 8, a=(8, 0x81), b=(8, 1)) == "2"

    def test_shift_right(self):
        assert run_expr("a >> b", 8, a=(8, 0x80), b=(8, 3)) == "16"

    def test_comparison(self):
        assert run_expr("a < b", 1, a=(8, 3), b=(8, 9)) == "1"
        assert run_expr("a >= b", 1, a=(8, 9), b=(8, 9)) == "1"

    def test_equality(self):
        assert run_expr("a == b", 1, a=(8, 7), b=(8, 7)) == "1"
        assert run_expr("a != b", 1, a=(8, 7), b=(8, 8)) == "1"

    def test_ternary(self):
        assert run_expr("a ? b : 8'd9", 8, a=(1, 1), b=(8, 4)) == "4"
        assert run_expr("a ? b : 8'd9", 8, a=(1, 0), b=(8, 4)) == "9"

    def test_concat(self):
        assert run_expr("{a, b}", 8, a=(4, 0xA), b=(4, 0x5)) == "165"

    def test_replication(self):
        assert run_expr("{4{a}}", 8, a=(2, 0b10)) == "170"

    def test_reduction_xor(self):
        assert run_expr("^a", 1, a=(8, 0b1011)) == "1"
        assert run_expr("^a", 1, a=(8, 0b11)) == "0"

    def test_logical_ops(self):
        assert run_expr("a && b", 1, a=(8, 3), b=(8, 0)) == "0"
        assert run_expr("a || b", 1, a=(8, 0), b=(8, 5)) == "1"
        assert run_expr("!a", 1, a=(8, 0)) == "1"

    def test_bit_select(self):
        assert run_expr("a[3]", 1, a=(8, 0b1000)) == "1"

    def test_part_select(self):
        assert run_expr("a[7:4]", 4, a=(8, 0xAB)) == "10"

    def test_case_equality_with_known_values(self):
        assert run_expr("a === b", 1, a=(4, 5), b=(4, 5)) == "1"


class TestAlwaysComb:
    def test_case_statement(self):
        src = """
module top_module (input [1:0] sel, output reg [3:0] out);
always @(*) begin
    case (sel)
        2'd0: out = 4'd1;
        2'd1: out = 4'd2;
        default: out = 4'd15;
    endcase
end
endmodule

module tb;
    reg [1:0] sel;
    wire [3:0] out;
    top_module dut(.sel(sel), .out(out));
    initial begin
        sel = 2'd1;
        #10 $display("%d", out);
        sel = 2'd3;
        #10 $display("%d", out);
        $finish;
    end
endmodule
"""
        result = simulate(src, "tb")
        assert result.stdout == ["2", "15"]

    def test_for_loop_popcount(self):
        src = """
module top_module (input [7:0] in_bus, output reg [3:0] count);
integer i;
always @(*) begin
    count = 4'd0;
    for (i = 0; i < 8; i = i + 1) begin
        count = count + in_bus[i];
    end
end
endmodule

module tb;
    reg [7:0] in_bus;
    wire [3:0] count;
    top_module dut(.in_bus(in_bus), .count(count));
    initial begin
        in_bus = 8'b1011_0110;
        #10 $display("%d", count);
        $finish;
    end
endmodule
"""
        assert simulate(src, "tb").stdout == ["5"]

    def test_combinational_chain_settles(self):
        src = """
module top_module (input [3:0] a, output [3:0] out);
wire [3:0] mid;
assign mid = a + 4'd1;
assign out = mid + 4'd1;
endmodule

module tb;
    reg [3:0] a;
    wire [3:0] out;
    top_module dut(.a(a), .out(out));
    initial begin
        a = 4'd3;
        #10 $display("%d", out);
        $finish;
    end
endmodule
"""
        assert simulate(src, "tb").stdout == ["5"]

    def test_wire_initializer_is_continuous(self):
        # `wire w = expr;` must track its inputs, not freeze at time zero.
        src = """
module top_module (input [3:0] a, output [3:0] out);
wire [3:0] doubled = a + a;
assign out = doubled;
endmodule

module tb;
    reg [3:0] a;
    wire [3:0] out;
    top_module dut(.a(a), .out(out));
    initial begin
        a = 4'd2;
        #10 $display("%d", out);
        a = 4'd5;
        #10 $display("%d", out);
        $finish;
    end
endmodule
"""
        assert simulate(src, "tb").stdout == ["4", "10"]

    def test_combinational_loop_detected(self):
        src = """
module tb;
    wire a, b;
    assign a = ~b;
    assign b = ~a;
    initial #10 $finish;
endmodule
"""
        # Either it settles (stable x) or trips the delta budget; both are
        # acceptable, but it must not hang.
        try:
            simulate(src, "tb")
        except SimulationLimit:
            pass

    def test_x_absorbs_feedback(self):
        # A feedback loop through x-propagating operators settles at x
        # instead of oscillating — 4-state stability.
        src = """
module tb;
    reg start;
    wire a;
    assign a = start ^ a;
    initial begin
        start = 1'b1;
        #10 $display("%b", a);
        $finish;
    end
endmodule
"""
        assert simulate(src, "tb").stdout == ["x"]

    def test_oscillating_loop_trips_budget(self):
        # `===` produces defined bits from x, so this two-process ring
        # genuinely oscillates and must be cut off by the delta budget.
        src = """
module tb;
    wire a, b;
    assign a = ~(b === 1'b1);
    assign b = a;
    initial #10 $finish;
endmodule
"""
        with pytest.raises(SimulationLimit):
            simulate(src, "tb")


class TestCompileChecks:
    def test_unknown_identifier_rejected(self):
        with pytest.raises(Exception):
            compile_design("module top_module (output o);\n"
                           "assign o = nonexistent;\nendmodule",
                           "top_module")

    def test_missing_module_rejected(self):
        with pytest.raises(Exception):
            compile_design("module a (); endmodule", "top_module")

    def test_statement_budget(self):
        src = """
module tb;
    integer i;
    initial begin
        i = 0;
        while (1) i = i + 1;
    end
endmodule
"""
        with pytest.raises((SimulationLimit, SimulationError)):
            simulate(src, "tb", max_stmts=10_000)


class TestFinishInCombinational:
    """$finish inside a combinational process must end the run cleanly
    instead of escaping Simulator.run() as an internal exception."""

    SRC = """
module tb;
    reg go;
    always @(*) if (go) $finish;
    initial begin
        go = 0;
        #5 go = 1;
        #100 $display("never printed");
    end
endmodule
"""

    @pytest.mark.parametrize("engine", SIMULATORS)
    def test_finish_requested_cleanly(self, engine):
        result = SIMULATORS[engine](self.SRC, "tb")
        assert result.finished
        assert result.sim_time == 5
        assert result.stdout == []
