"""Golden equivalence: the compiled simulator must match the interpreter.

Every fixture (a corpus covering the supported statement/expression
surface) plus every benchmark problem's golden RTL + rendered driver is
run through the compiled simulator and the reference interpreter
(``tests/oracles/``); the observable outcome — stdout,
emitted files, final simulation time, finish flag and the final value of
every signal and memory word — must be identical.
"""

import pytest

from oracles import simulate_interpreted
from repro.codegen import render_driver
from repro.hdl import simulate
from repro.hdl.compile import clear_program_cache, program_cache_stats
from repro.problems import load_dataset

MAX_TIME = 2_000_000
MAX_STMTS = 4_000_000


def snapshot(result):
    design = result.design
    return {
        "finished": result.finished,
        "sim_time": result.sim_time,
        "stdout": list(result.stdout),
        "files": {name: list(lines) for name, lines in result.files.items()},
        "signals": {name: sig.value.bits()
                    for name, sig in design.signals.items()},
        "memories": {name: [word.bits() for word in mem.words]
                     for name, mem in design.memories.items()},
    }


def engine_snapshots(src, top="tb", seed=0):
    """The interpreter, fresh-compiled, and shared-program-rebound runs.

    The second compiled run elaborates the same (parse-cached) AST
    afresh, so its processes hit the shared slot-program cache and only
    *rebind* — the path every production re-pairing of a driver with a
    new DUT takes — and must behave identically to the first compile.
    """
    interp = snapshot(simulate_interpreted(src, top, max_time=MAX_TIME,
                                           max_stmts=MAX_STMTS, seed=seed))
    clear_program_cache()
    compiled = snapshot(simulate(src, top, max_time=MAX_TIME,
                                 max_stmts=MAX_STMTS, seed=seed))
    before = program_cache_stats()
    rebound = snapshot(simulate(src, top, max_time=MAX_TIME,
                                max_stmts=MAX_STMTS, seed=seed))
    after = program_cache_stats()
    assert after["programs_shared"] > before["programs_shared"], \
        "rebound run did not exercise the shared-program cache"
    return interp, compiled, rebound


def both_engines(src, top="tb", seed=0):
    interp, compiled, rebound = engine_snapshots(src, top, seed)
    assert compiled == rebound, "fresh-compile vs shared-rebind divergence"
    return interp, compiled


# ----------------------------------------------------------------------
# Feature corpus
# ----------------------------------------------------------------------
CORPUS = {
    "blocking_and_ops": """
module tb;
    reg [7:0] a, b, c;
    reg signed [7:0] s;
    initial begin
        a = 8'd200; b = 8'd100;
        c = a + b;           $display("add=%d", c);
        c = a - b;           $display("sub=%d", c);
        c = a * b;           $display("mul=%d", c);
        c = a / 8'd7;        $display("div=%d", c);
        c = a % 8'd7;        $display("mod=%d", c);
        c = a & b;           $display("and=%b", c);
        c = a | b;           $display("or=%b", c);
        c = a ^ b;           $display("xor=%b", c);
        c = ~a;              $display("not=%b", c);
        s = -8'sd5;          $display("neg=%d", s);
        s = s >>> 1;         $display("ashr=%d", s);
        c = a << 2;          $display("shl=%b", c);
        c = a >> 2;          $display("shr=%b", c);
        $display("eq=%b ne=%b lt=%b le=%b gt=%b ge=%b",
                 a == b, a != b, a < b, a <= b, a > b, a >= b);
        $display("land=%b lor=%b lnot=%b", a && 0, a || 0, !a);
        $display("red=%b%b%b%b%b%b", &a, ~&a, |a, ~|a, ^a, ~^a);
        $display("tern=%d", (a > b) ? a : b);
        $display("pow=%d", 2 ** 6);
        $finish;
    end
endmodule
""",
    "nonblocking_and_events": """
module tb;
    reg clk;
    reg [3:0] q, r;
    always #5 clk = ~clk;
    always @(posedge clk) begin
        q <= q + 4'd1;
        r <= q;
    end
    initial begin
        clk = 0; q = 0; r = 0;
        repeat (6) @(posedge clk);
        #1 $display("q=%d r=%d", q, r);
        @(negedge clk);
        $display("neg t=%0d", $time);
        $finish;
    end
endmodule
""",
    "case_variants": """
module tb;
    reg [2:0] sel;
    reg [7:0] out;
    integer i;
    always @(*) begin
        case (sel)
            3'd0: out = 8'hAA;
            3'd1, 3'd2: out = 8'hBB;
            default: out = 8'hCC;
        endcase
    end
    initial begin
        for (i = 0; i < 5; i = i + 1) begin
            sel = i[2:0];
            #1 $display("sel=%d out=%h", sel, out);
        end
        casez (8'b1010_0011)
            8'b1010_???1: $display("casez hit");
            default: $display("casez miss");
        endcase
        casex (8'b10x0_0011)
            8'b10x0_xx11: $display("casex hit");
            default: $display("casex miss");
        endcase
        $finish;
    end
endmodule
""",
    "loops": """
module tb;
    integer i, total;
    reg [7:0] count;
    initial begin
        total = 0;
        for (i = 0; i < 10; i = i + 1) total = total + i;
        $display("for=%d", total);
        count = 0;
        while (count < 8'd20) count = count + 8'd3;
        $display("while=%d", count);
        total = 0;
        repeat (7) total = total + 2;
        $display("repeat=%d", total);
        $finish;
    end
endmodule
""",
    "forever_clock_gen": """
module tb;
    reg clk;
    integer edges;
    initial begin
        clk = 0;
        forever #7 clk = ~clk;
    end
    always @(posedge clk) edges = edges + 1;
    initial begin
        edges = 0;
        #100 $display("edges=%0d t=%0t", edges, $time);
        $finish;
    end
endmodule
""",
    "concat_replicate_parts": """
module tb;
    reg [7:0] a;
    reg [15:0] w;
    reg [3:0] hi, lo;
    reg [1:0] x2;
    initial begin
        a = 8'b1100_0101;
        w = {a, ~a};                 $display("cat=%b", w);
        w = {4{4'b10_01}};           $display("rep=%b", w);
        {hi, lo} = a;                $display("hi=%b lo=%b", hi, lo);
        x2 = a[4:3];                 $display("part=%b", x2);
        a[0] = 1'b0; a[7] = 1'b0;    $display("bits=%b", a);
        w[11:4] = 8'hFF;             $display("wpart=%b", w);
        $display("bit3=%b", a[3]);
        $finish;
    end
endmodule
""",
    "memories": """
module tb;
    reg [7:0] mem [0:15];
    reg [3:0] addr;
    integer i;
    initial begin
        for (i = 0; i < 16; i = i + 1) mem[i] = i * 3;
        addr = 4'd5;
        $display("m5=%d mA=%d", mem[addr], mem[10]);
        mem[addr] = 8'hEE;
        $display("m5=%h", mem[5]);
        $finish;
    end
endmodule
""",
    "hierarchy_aliased": """
module child (input [3:0] a, input [3:0] b, output [4:0] s);
    assign s = a + b;
endmodule
module tb;
    reg [3:0] a, b;
    wire [4:0] s;
    child dut(.a(a), .b(b), .s(s));
    initial begin
        a = 4'd9; b = 4'd8;
        #1 $display("s=%d", s);
        a = 4'd15; b = 4'd15;
        #1 $display("s=%d", s);
        $finish;
    end
endmodule
""",
    "hierarchy_expression_bound": """
module inv (input [3:0] d, output reg [3:0] q);
    always @(*) q = ~d;
endmodule
module tb;
    reg [3:0] x;
    wire [3:0] y;
    inv dut(.d(x ^ 4'b0101), .q(y));
    initial begin
        x = 4'b0000;
        #1 $display("y=%b", y);
        x = 4'b1111;
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
""",
    "parameters_and_clog2": """
module buf_p (d, q);
    parameter WIDTH = 4;
    parameter DEPTH = 10;
    localparam ABITS = $clog2(DEPTH);
    input [WIDTH-1:0] d;
    output [WIDTH-1:0] q;
    assign q = d;
endmodule
module tb;
    reg [7:0] d;
    wire [7:0] q;
    buf_p #(.WIDTH(8), .DEPTH(100)) dut(.d(d), .q(q));
    initial begin
        d = 8'h5A;
        #1 $display("q=%h clog2=%0d", q, $clog2(100));
        $finish;
    end
endmodule
""",
    "x_propagation": """
module tb;
    reg [3:0] u;  // never assigned: stays x
    reg [3:0] v;
    initial begin
        v = u + 4'd1;
        $display("add=%b", v);
        v = u & 4'b0000;
        $display("and0=%b", v);
        v = u | 4'b1111;
        $display("or1=%b", v);
        $display("eq=%b caseeq=%b", u == u, u === u);
        if (u) $display("taken"); else $display("else");
        $display("tern=%b", u[0] ? 4'b1100 : 4'b1010);
        $finish;
    end
endmodule
""",
    "system_tasks_and_files": """
module tb;
    integer fd;
    reg [31:0] r1, r2;
    initial begin
        fd = $fopen("out.txt");
        $fdisplay(fd, "line one %0d", 42);
        $fwrite(fd, "partial ");
        $fdisplay(fd, "done");
        r1 = $random;
        r2 = $random;
        $display("rands differ=%b", r1 != r2);
        $display("time=%0t", $time);
        #13 $display("time=%0t", $time);
        $display("pct=%d%%", 7);
        $display("char=%c", 8'h41);
        $display("str=%s", "hello");
        $fclose(fd);
        $finish;
    end
endmodule
""",
    "signed_semantics": """
module tb;
    reg signed [7:0] a, b;
    reg signed [15:0] wide;
    initial begin
        a = -8'sd100; b = 8'sd3;
        $display("div=%d mod=%d", a / b, a % b);
        $display("cmp=%b", a < b);
        wide = a;  // sign extension
        $display("ext=%d", wide);
        $display("us=%d", $unsigned(a));
        $display("s=%d", $signed(8'hFF));
        $finish;
    end
endmodule
""",
    "zero_delay_and_races": """
module tb;
    reg a, b;
    initial begin
        a = 0;
        #0 a = 1;
        b = a;
        $display("b=%b", b);
        $finish;
    end
endmodule
""",
    "finish_in_comb": """
module tb;
    reg go;
    always @(*) if (go) $finish;
    initial begin
        go = 0;
        #5 go = 1;
        #10 $display("unreachable");
    end
endmodule
""",
    "wire_init_continuous": """
module tb;
    reg [3:0] a;
    wire [3:0] doubled = a + a;
    initial begin
        a = 4'd3;
        #1 $display("d=%d", doubled);
        a = 4'd7;
        #1 $display("d=%d", doubled);
        $finish;
    end
endmodule
""",
    "always_sensitivity_list": """
module tb;
    reg [3:0] a, b;
    reg [4:0] s;
    always @(a or b) s = a + b;
    initial begin
        a = 1; b = 2;
        #1 $display("s=%d", s);
        b = 9;
        #1 $display("s=%d", s);
        $finish;
    end
endmodule
""",
    # Lazily-evaluated error paths: the bad case label sits after the
    # matching one and the bad ternary branch is never selected, so the
    # interpreter never evaluates them — the compiled engine must not
    # fail at compile time either.  (A loop forces eager compilation of
    # the initial body.)
    "lazy_error_paths": """
module tb;
    reg [3:0] y;
    integer i;
    initial begin
        for (i = 0; i < 2; i = i + 1) begin
            case (1'b1)
                1'b1: y = 4'd1;
                {0{1'b0}}: y = 4'd2;
            endcase
            y = (1'b1) ? y + 4'd1 : {0{1'b0}};
        end
        $display("y=%d", y);
        $finish;
    end
endmodule
""",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fixture_equivalence(name):
    interp, compiled = both_engines(CORPUS[name])
    assert interp == compiled


def test_fixture_corpus_produces_output():
    # Meta-check: the corpus fixtures genuinely exercise the simulator
    # (a silently-empty fixture would make equivalence vacuous).
    for name, src in CORPUS.items():
        interp, _ = both_engines(src)
        assert interp["finished"], name
        if name != "finish_in_comb":
            assert interp["stdout"], name


def test_seed_threading_matches():
    src = CORPUS["system_tasks_and_files"]
    interp, compiled = both_engines(src, seed=1234)
    assert interp == compiled


# ----------------------------------------------------------------------
# Every benchmark problem's golden RTL through both engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "task_id", [task.task_id for task in load_dataset()])
def test_problem_golden_equivalence(task_id):
    from repro.problems import get_task

    task = get_task(task_id)
    driver = render_driver(task, task.canonical_scenarios())
    merged = task.golden_rtl() + "\n" + driver
    interp, compiled = both_engines(merged)
    assert interp == compiled
    assert interp["finished"]
