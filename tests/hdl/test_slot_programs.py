"""Scope-polymorphic shared programs: compile-once, bind-many semantics.

The acceptance bar for the slot-indexed compile layer: pairing one
driver with N distinct DUT designs performs **zero recompilations**
after the first — asserted here via the compile counters exposed by
:func:`repro.hdl.compile.program_cache_stats`.
"""

import pytest

from oracles import SIMULATORS
from repro.hdl import ast as hdl_ast
from repro.hdl.compile import (clear_program_cache, compile_spec,
                               program_cache_stats)
from repro.hdl.elaborate import elaborate
from repro.hdl.errors import SimulationError
from repro.hdl.parser import parse_source_cached
from repro.hdl.simulator import Simulator

DRIVER = """
module tb;
    reg clk, reset;
    wire [7:0] q;
    integer i;
    top_module dut(.clk(clk), .reset(reset), .q(q));
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        reset = 1;
        @(posedge clk); #1;
        reset = 0;
        for (i = 0; i < 6; i = i + 1) begin
            @(posedge clk); #1;
            $display("i=%0d q=%d", i, q);
        end
        $finish;
    end
endmodule
"""

DUT_COUNT_UP = """
module top_module (input clk, input reset, output reg [7:0] q);
always @(posedge clk) begin
    if (reset) q <= 8'd0;
    else q <= q + 8'd1;
end
endmodule
"""

DUT_COUNT_BY_TWO = """
module top_module (input clk, input reset, output reg [7:0] q);
always @(posedge clk) begin
    if (reset) q <= 8'd0;
    else q <= q + 8'd2;
end
endmodule
"""

DUT_COUNT_DOWN = """
module top_module (input clk, input reset, output reg [7:0] q);
always @(posedge clk) begin
    if (reset) q <= 8'd200;
    else q <= q - 8'd1;
end
endmodule
"""


def _compiles_during(fn):
    before = program_cache_stats()["programs_compiled"]
    result = fn()
    return program_cache_stats()["programs_compiled"] - before, result


def _elaborate_pair(dut_src: str, driver_src: str):
    """Merge separately parse-cached ASTs, like core's ``_pair_template``
    does: the driver's module (and thus its statement objects) is the
    same across every DUT it is paired with."""
    dut_ast = parse_source_cached(dut_src)
    driver_ast = parse_source_cached(driver_src)
    merged = hdl_ast.SourceFile(tuple(dut_ast.modules)
                                + tuple(driver_ast.modules))
    return elaborate(merged, "tb")


def _compile_all(design) -> None:
    for spec in design.processes:
        compile_spec(spec)


class TestSameDesignReElaboration:
    def test_zero_recompiles_on_fresh_elaboration(self):
        clear_program_cache()
        design1 = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        first, _ = _compiles_during(lambda: _compile_all(design1))
        assert first > 0

        design2 = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        second, _ = _compiles_during(lambda: _compile_all(design2))
        assert second == 0, \
            f"re-elaboration recompiled {second} programs"

        # Binding is counted separately and must have happened.
        assert program_cache_stats()["specs_bound"] > 0

    def test_rebound_design_simulates_identically(self):
        clear_program_cache()
        design1 = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        design2 = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        result1 = Simulator(design1).run()
        result2 = Simulator(design2).run()
        assert result1.stdout == result2.stdout
        assert result1.stdout[-1] == "i=5 q=6"
        assert result1.sim_time == result2.sim_time


class TestCrossDesignDriverReuse:
    def test_driver_compiles_once_across_n_duts(self):
        """Pairing the driver with a new DUT compiles only DUT-module
        programs — never the driver's — and a DUT whose programs are
        already cached (from any elaboration) adds zero compiles."""
        clear_program_cache()
        # First pairing compiles driver + DUT A.
        design_a = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        first, _ = _compiles_during(lambda: _compile_all(design_a))
        assert first > 0

        for dut in (DUT_COUNT_BY_TWO, DUT_COUNT_DOWN):
            # Warm the new DUT's own programs via a standalone
            # elaboration of just its module...
            standalone = elaborate(parse_source_cached(dut), "top_module")
            _compile_all(standalone)
            # ...then pairing it with the driver must recompile nothing:
            # the driver's programs transfer by signature, the DUT's by
            # the standalone warm-up.
            paired = _elaborate_pair(dut, DRIVER)
            added, _ = _compiles_during(lambda: _compile_all(paired))
            assert added == 0, \
                f"pairing with a warm DUT recompiled {added} programs"

    def test_new_dut_only_costs_its_own_module(self):
        clear_program_cache()
        design_a = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        _compile_all(design_a)

        # A cold, distinct DUT: the pairing may compile that module's
        # processes (here: one always block) but nothing of the driver.
        dut_process_count = len(
            elaborate(parse_source_cached(DUT_COUNT_DOWN),
                      "top_module").processes)
        paired = _elaborate_pair(DUT_COUNT_DOWN, DRIVER)
        added, _ = _compiles_during(lambda: _compile_all(paired))
        assert added <= dut_process_count

    def test_shared_driver_behaves_per_dut(self):
        clear_program_cache()
        outputs = {}
        for label, dut in (("up", DUT_COUNT_UP),
                           ("two", DUT_COUNT_BY_TWO),
                           ("down", DUT_COUNT_DOWN)):
            design = _elaborate_pair(dut, DRIVER)
            outputs[label] = Simulator(design).run().stdout[-1]
        assert outputs["up"] == "i=5 q=6"
        assert outputs["two"] == "i=5 q=12"
        assert outputs["down"] == "i=5 q=194"


class TestSignatureGuards:
    def test_width_change_blocks_sharing(self):
        """A DUT port-width change alters the structural signature, so
        the driver's programs must NOT transfer (they baked widths)."""
        wide_driver = DRIVER.replace("wire [7:0] q", "wire [15:0] q")
        clear_program_cache()
        design_narrow = _elaborate_pair(DUT_COUNT_UP, DRIVER)
        _compile_all(design_narrow)
        wide_dut = DUT_COUNT_UP.replace("[7:0]", "[15:0]")
        design_wide = _elaborate_pair(wide_dut, wide_driver)
        added, _ = _compiles_during(lambda: _compile_all(design_wide))
        assert added > 0

        # Both still simulate correctly despite sharing a module name.
        narrow = Simulator(_elaborate_pair(DUT_COUNT_UP, DRIVER)).run()
        wide = Simulator(_elaborate_pair(wide_dut, wide_driver)).run()
        assert narrow.stdout[-1] == "i=5 q=6"
        assert wide.stdout[-1] == "i=5 q=6"

    def test_parameter_override_blocks_sharing(self):
        """Same module AST, different parameter override: the constant
        facts differ, so each parameterisation compiles once."""
        src = """
module adder (input [3:0] a, output [3:0] y);
    parameter STEP = 1;
    assign y = a + STEP;
endmodule
module tb;
    reg [3:0] a;
    wire [3:0] y1, y2;
    adder #(.STEP(1)) u1(.a(a), .y(y1));
    adder #(.STEP(3)) u2(.a(a), .y(y2));
    initial begin
        a = 4'd5;
        #1 $display("y1=%d y2=%d", y1, y2);
        $finish;
    end
endmodule
"""
        clear_program_cache()
        design = elaborate(parse_source_cached(src), "tb")
        _compile_all(design)
        result = Simulator(design).run()
        assert result.stdout == ["y1=6 y2=8"]
        # Re-elaboration still shares both parameterisations.
        added, _ = _compiles_during(lambda: _compile_all(
            elaborate(parse_source_cached(src), "tb")))
        assert added == 0


COUNTER_TB = """
module tb;
    reg clk;
    reg [3:0] q;
    wire [3:0] next = q + 4'd3;
    always #5 clk = ~clk;
    always @(posedge clk) q <= next;
    initial begin
        clk = 0;
        q = 0;
        repeat (6) @(posedge clk);
        #1 $display("q=%0d", q);
        $finish;
    end
endmodule
"""


def _outcome(src: str, engine: str = "compiled"):
    try:
        result = SIMULATORS[engine](src, "tb")
    except SimulationError as exc:
        return ("error", str(exc))
    return (result.stdout, result.sim_time,
            {name: sig.value.bits()
             for name, sig in result.design.signals.items()})


class TestStructuralKeys:
    def test_identical_process_in_another_source_compiles_once(self):
        """A second source text (so a separately parsed AST) that repeats
        every process verbatim and adds one compiles only the new one,
        and runs exactly as a cold compile of it does."""
        other = COUNTER_TB.replace(
            "    always #5", "    // another candidate\n"
                            "    wire [3:0] spare = q ^ 4'd5;\n"
                            "    always #5")
        clear_program_cache()
        _compile_all(elaborate(parse_source_cached(COUNTER_TB), "tb"))
        design = elaborate(parse_source_cached(other), "tb")
        added, _ = _compiles_during(lambda: _compile_all(design))
        assert added == 1
        shared = _outcome(other)
        clear_program_cache()
        assert shared == _outcome(other)
        assert shared[0] == ["q=2"]

    @pytest.mark.parametrize("engine", SIMULATORS)
    def test_equal_comb_bodies_keep_their_own_labels(self, engine):
        """``always @(*)`` and ``always @(a)`` elaborate to the same comb
        body in the same (top) scope; the compiled guard bakes in the
        label, so the second must not reuse the first's program."""
        template = """
module tb;
    reg a, y;
    always @(EVENTS) begin #1 y = a; end
    initial begin a = 0; #5 a = 1; #5 $finish; end
endmodule
"""
        clear_program_cache()
        for events, label in (("*", "always_comb"), ("a", "always_list"),
                              ("*", "always_comb")):
            outcome = _outcome(template.replace("EVENTS", events), engine)
            assert outcome == (
                "error", "delay/event control inside combinational "
                f"block {label!r}")

    def test_equal_body_with_other_widths_does_not_share(self):
        """The same ``assign`` text over a wider operand resolves to a
        different slot signature: it compiles anew and keeps its own
        width semantics."""
        wide = COUNTER_TB.replace("[3:0]", "[7:0]")
        clear_program_cache()
        _compile_all(elaborate(parse_source_cached(COUNTER_TB), "tb"))
        design = elaborate(parse_source_cached(wide), "tb")
        added, _ = _compiles_during(lambda: _compile_all(design))
        assert added > 0
        assert _outcome(wide)[0] == ["q=18"]
        assert _outcome(COUNTER_TB)[0] == ["q=2"]
