"""Unit tests for the Verilog parser and un-parser."""

import pytest

from repro.core.simulation import SYNTAX, run_driver, syntax_ok
from repro.hdl import ast
from repro.hdl.errors import VerilogSyntaxError
from repro.hdl.parser import MAX_NESTING_DEPTH, parse_module, parse_source
from repro.hdl.unparse import unparse_module


class TestModuleHeaders:
    def test_ansi_ports(self):
        m = parse_module(
            "module m(input [3:0] a, output reg b, input wire c);\nendmodule")
        assert [p.name for p in m.ports] == ["a", "b", "c"]
        assert m.ports[0].direction == "input"
        assert m.ports[1].is_reg
        assert m.ports[2].direction == "input"

    def test_ansi_direction_carries_over(self):
        m = parse_module("module m(input a, b, output c);\nendmodule")
        assert [p.direction for p in m.ports] == ["input", "input", "output"]

    def test_non_ansi_ports(self):
        m = parse_module("""
            module m(a, b, y);
                input [1:0] a;
                input b;
                output reg y;
            endmodule""")
        assert [p.name for p in m.ports] == ["a", "b", "y"]
        assert m.ports[2].is_reg

    def test_non_ansi_missing_direction_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_module("module m(a);\nendmodule")

    def test_portless_module(self):
        m = parse_module("module tb;\nendmodule")
        assert m.ports == ()

    def test_signed_port(self):
        m = parse_module("module m(input signed [7:0] a);\nendmodule")
        assert m.ports[0].signed

    def test_two_modules(self):
        sf = parse_source("module a;\nendmodule\nmodule b;\nendmodule")
        assert [m.name for m in sf.modules] == ["a", "b"]
        assert sf.module("b").name == "b"

    def test_missing_endmodule(self):
        with pytest.raises(VerilogSyntaxError):
            parse_module("module m(input a);")


class TestDeclarations:
    def test_wire_decl(self):
        m = parse_module("module m;\nwire [7:0] a, b;\nendmodule")
        decl = m.items[0]
        assert isinstance(decl, ast.NetDecl)
        assert decl.names == ("a", "b")

    def test_reg_with_init(self):
        m = parse_module("module m;\nreg clk = 0;\nendmodule")
        decl = m.items[0]
        assert decl.inits[0] is not None

    def test_integer(self):
        m = parse_module("module m;\ninteger i;\nendmodule")
        assert m.items[0].kind == "integer"

    def test_memory_decl(self):
        m = parse_module("module m;\nreg [7:0] mem [0:15];\nendmodule")
        assert m.items[0].array is not None

    def test_memory_multiple_names_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_module("module m;\nreg [7:0] a [0:3], b;\nendmodule")

    def test_parameters(self):
        m = parse_module(
            "module m;\nparameter W = 8;\nlocalparam A = 1, B = 2;\nendmodule")
        params = [i for i in m.items if isinstance(i, ast.ParamDecl)]
        assert [p.name for p in params] == ["W", "A", "B"]
        assert not params[0].local
        assert params[1].local


class TestExpressions:
    def parse_expr(self, text):
        m = parse_module(f"module m;\nassign x = {text};\nendmodule")
        return m.items[0].value

    def test_precedence_mul_over_add(self):
        e = self.parse_expr("a + b * c")
        assert isinstance(e, ast.Binary) and e.op == "+"
        assert isinstance(e.right, ast.Binary) and e.right.op == "*"

    def test_precedence_and_over_or(self):
        e = self.parse_expr("a | b & c")
        assert e.op == "|"
        assert e.right.op == "&"

    def test_ternary_right_assoc(self):
        e = self.parse_expr("a ? b : c ? d : f")
        assert isinstance(e, ast.Ternary)
        assert isinstance(e.other, ast.Ternary)

    def test_unary_reduction(self):
        e = self.parse_expr("&a")
        assert isinstance(e, ast.Unary) and e.op == "&"

    def test_concat(self):
        e = self.parse_expr("{a, b, 2'b01}")
        assert isinstance(e, ast.Concat)
        assert len(e.parts) == 3

    def test_replication(self):
        e = self.parse_expr("{4{a}}")
        assert isinstance(e, ast.Replicate)

    def test_bit_select(self):
        e = self.parse_expr("a[3]")
        assert isinstance(e, ast.Index)

    def test_part_select(self):
        e = self.parse_expr("a[7:4]")
        assert isinstance(e, ast.PartSelect)

    def test_nested_parens(self):
        e = self.parse_expr("((a))")
        assert isinstance(e, ast.Identifier)

    def test_system_function(self):
        e = self.parse_expr("$signed(a)")
        assert isinstance(e, ast.SystemCall)
        assert e.name == "$signed"

    def test_comparison_chain(self):
        e = self.parse_expr("a == b")
        assert e.op == "=="

    def test_shift_ops(self):
        assert self.parse_expr("a >>> 2").op == ">>>"
        assert self.parse_expr("a << 2").op == "<<"


class TestStatements:
    def parse_stmt(self, text):
        m = parse_module(
            f"module m;\nalways @(posedge clk) {text}\nendmodule")
        return m.items[0].body

    def test_nonblocking(self):
        s = self.parse_stmt("q <= d;")
        assert isinstance(s, ast.NonblockingAssign)

    def test_blocking(self):
        s = self.parse_stmt("q = d;")
        assert isinstance(s, ast.BlockingAssign)

    def test_if_else_chain(self):
        s = self.parse_stmt(
            "begin if (a) q <= 0; else if (b) q <= 1; else q <= 2; end")
        inner = s.stmts[0]
        assert isinstance(inner, ast.If)
        assert isinstance(inner.other, ast.If)

    def test_case_with_default(self):
        s = self.parse_stmt("""
            case (sel)
                2'd0: q <= a;
                2'd1, 2'd2: q <= b;
                default: q <= 0;
            endcase""")
        assert isinstance(s, ast.Case)
        assert len(s.items) == 3
        assert len(s.items[1].labels) == 2
        assert s.items[2].labels == ()

    def test_casez(self):
        s = self.parse_stmt("casez (a) 4'b1???: q <= 1; endcase")
        assert s.kind == "casez"

    def test_unterminated_case(self):
        with pytest.raises(VerilogSyntaxError):
            self.parse_stmt("case (a) 1'b0: q <= 0;")

    def test_for_loop(self):
        s = self.parse_stmt("for (i = 0; i < 8; i = i + 1) q <= i;")
        assert isinstance(s, ast.For)

    def test_repeat_and_forever(self):
        assert isinstance(self.parse_stmt("repeat (3) q <= 0;"), ast.Repeat)
        assert isinstance(self.parse_stmt("forever #5 q = ~q;"), ast.Forever)

    def test_delay_statement(self):
        s = self.parse_stmt("#10 q <= 1;")
        assert isinstance(s, ast.DelayStmt)
        assert isinstance(s.stmt, ast.NonblockingAssign)

    def test_bare_delay(self):
        s = self.parse_stmt("#10;")
        assert isinstance(s, ast.DelayStmt)
        assert s.stmt is None

    def test_event_control_stmt(self):
        s = self.parse_stmt("begin @(negedge clk); q <= 1; end")
        assert isinstance(s.stmts[0], ast.EventControl)

    def test_system_task(self):
        s = self.parse_stmt('$display("x=%d", x);')
        assert isinstance(s, ast.SysTaskCall)
        assert s.name == "$display"

    def test_finish_without_parens(self):
        s = self.parse_stmt("$finish;")
        assert s.name == "$finish"

    def test_concat_lvalue(self):
        s = self.parse_stmt("{c, s} = a + b;")
        assert isinstance(s.target, ast.LvConcat)

    def test_part_select_lvalue(self):
        s = self.parse_stmt("q[3:0] <= d;")
        assert isinstance(s.target, ast.LvPart)

    def test_named_block(self):
        s = self.parse_stmt("begin : blk q <= 0; end")
        assert s.name == "blk"


class TestAlwaysVariants:
    def test_always_star(self):
        m = parse_module("module m;\nalways @(*) y = a;\nendmodule")
        assert m.items[0].events is None

    def test_always_star_no_parens(self):
        m = parse_module("module m;\nalways @* y = a;\nendmodule")
        assert m.items[0].events is None

    def test_sensitivity_list_or(self):
        m = parse_module(
            "module m;\nalways @(posedge clk or negedge rst) q <= 0;\nendmodule")
        events = m.items[0].events
        assert [e.edge for e in events] == ["pos", "neg"]

    def test_sensitivity_list_comma(self):
        m = parse_module(
            "module m;\nalways @(posedge clk, posedge rst) q <= 0;\nendmodule")
        assert len(m.items[0].events) == 2

    def test_free_running_always(self):
        m = parse_module("module m;\nalways #5 clk = ~clk;\nendmodule")
        assert m.items[0].events == ()


class TestInstances:
    def test_named_connections(self):
        m = parse_module(
            "module m;\ndut u0 (.a(x), .b(y[3:0]), .c());\nendmodule")
        inst = m.items[0]
        assert isinstance(inst, ast.Instance)
        assert inst.module == "dut"
        assert inst.connections[0][0] == "a"
        assert inst.connections[2][1] is None

    def test_positional_connections(self):
        m = parse_module("module m;\ndut u0 (x, y);\nendmodule")
        assert m.items[0].connections[0][0] is None

    def test_parameter_override(self):
        m = parse_module("module m;\ndut #(.W(8)) u0 (.a(x));\nendmodule")
        assert m.items[0].parameters[0][0] == "W"


class TestUnparseRoundTrip:
    SOURCES = [
        """module m(input [3:0] a, input [3:0] b, output [4:0] s);
            assign s = a + b;
        endmodule""",
        """module m(input clk, input rst, output reg [7:0] q);
            always @(posedge clk or posedge rst)
                if (rst) q <= 8'd0;
                else q <= q + 8'd1;
        endmodule""",
        """module m(input [2:0] sel, input [7:0] a, output reg [7:0] y);
            always @(*)
                case (sel)
                    3'd0: y = a;
                    3'd1: y = ~a;
                    default: y = 8'd0;
                endcase
        endmodule""",
        """module m(input [7:0] din, output reg [3:0] cnt);
            integer i;
            always @(*) begin
                cnt = 4'd0;
                for (i = 0; i < 8; i = i + 1)
                    cnt = cnt + din[i];
            end
        endmodule""",
        """module tb;
            reg clk = 0;
            wire [3:0] q;
            integer fd;
            dut u0 (.clk(clk), .q(q));
            always #5 clk = ~clk;
            initial begin
                fd = $fopen("x.txt");
                #10 $fdisplay(fd, "q=%d", q);
                $finish;
            end
        endmodule""",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_roundtrip_is_stable(self, source):
        first = unparse_module(parse_module(source))
        second = unparse_module(parse_module(first))
        assert first == second


class TestNestingDepth:
    """Hostile nesting fails with a positioned syntax error, never a
    ``RecursionError`` out of the parser or the simulation API."""

    DUT = "module top_module(input a, output y);\nassign y = a;\nendmodule"

    @staticmethod
    def _driver(expr: str, stmt: str = "") -> str:
        return ("module tb;\nreg a;\nreg [7:0] b;\n"
                "initial begin\n"
                f"a = 1'b1; {stmt}\n"
                f'$display("%d", {expr});\n'
                "$finish;\nend\nendmodule")

    def test_deep_parentheses_fail_typed(self):
        driver = self._driver("(" * 200 + "a" + ")" * 200)
        assert syntax_ok(driver) is False
        run = run_driver(driver, self.DUT)
        assert run.status == SYNTAX
        assert run.detail.startswith("driver: line 6:")
        assert f"nesting deeper than {MAX_NESTING_DEPTH} levels" \
            in run.detail

    @pytest.mark.parametrize("expr, stmt", [
        ("~" * 300 + "a", ""),
        ("a ? 1 : " * 300 + "0", ""),
        ("a", "if (a) " * 300 + "b = 1;"),
        ("a", "begin " * 300 + "b = 1;" + " end" * 300),
        ("a", "{" * 300 + "b" + "}" * 300 + " = 1;"),
        ("a || a && a | a ^ a & a == a < a << a + a * a ** (" * 30
         + "a" + ")" * 30, ""),
    ], ids=["unary", "ternary", "if", "begin", "lvalue", "ladder"])
    def test_every_recursive_form_is_bounded(self, expr, stmt):
        with pytest.raises(VerilogSyntaxError) as info:
            parse_source(self._driver(expr, stmt))
        assert info.value.line in (5, 6)
        assert "nesting deeper than" in str(info.value)

    def test_nesting_up_to_the_bound_parses(self):
        # The $display argument sits three levels down (initial body,
        # begin block, system task), so this many parentheses reach the
        # bound exactly.
        depth = MAX_NESTING_DEPTH - 3
        driver = self._driver("(" * depth + "a" + ")" * depth)
        assert syntax_ok(driver)
        run = run_driver(driver, self.DUT)
        assert run.status != SYNTAX
