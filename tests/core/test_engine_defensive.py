"""Explicit regression tests for the engine's defensive paths.

PR 1 fixed ``$finish`` escaping ``_run_comb`` and added
``RecursionError`` handling to the run_* wrappers — previously these
were only exercised incidentally (via the corpus fixture / one
monolithic test).  This file pins each path directly, on the compiled
simulator and its interpreter oracle where applicable.
"""

import time

import pytest

import repro.core.simulation as sim
from oracles import SIMULATORS
from repro.core.simulation import (ELABORATION, OK, RUNTIME, dut_compiles,
                                   run_driver, run_monolithic,
                                   run_mutant_sweep)
from repro.hdl import ElaborationError, Simulator, compile_design, simulate
from repro.hdl.context import SimContext, _context_from_env

FINISH_IN_COMB = """
module tb;
    reg go;
    always @(*) if (go) $finish;
    initial begin
        go = 0;
        #5 go = 1;
        #10 $display("unreachable");
    end
endmodule
"""

FINISH_IN_COMB_AT_T0 = """
module tb;
    reg stop;
    wire w = stop;
    always @(*) if (stop) $finish;
    initial stop = 1;
endmodule
"""


class TestFinishInsideCombProcess:
    @pytest.mark.parametrize("engine", SIMULATORS)
    def test_finish_ends_run_cleanly(self, engine):
        # $finish raised inside a combinational process must terminate
        # the run via finish_requested — not escape Simulator.run() as
        # an internal exception, and not execute later events.
        result = SIMULATORS[engine](FINISH_IN_COMB, "tb")
        assert result.finished
        assert result.sim_time == 5
        assert result.stdout == []

    @pytest.mark.parametrize("engine", SIMULATORS)
    def test_finish_at_time_zero(self, engine):
        result = SIMULATORS[engine](FINISH_IN_COMB_AT_T0, "tb")
        assert result.finished
        assert result.sim_time == 0


class _RecursionBoom:
    def run(self, **kwargs):
        raise RecursionError


class TestRecursionErrorHandling:
    TB = "module tb; initial $finish; endmodule"
    DUT = "module top_module(); endmodule"

    def test_run_monolithic_reports_runtime(self, monkeypatch):
        monkeypatch.setattr(sim, "_pair_template",
                            lambda *args: _RecursionBoom())
        run = run_monolithic(self.TB, self.DUT)
        assert run.status == RUNTIME
        assert "recursion" in run.detail

    def test_run_driver_reports_runtime(self, monkeypatch):
        # run_driver has the same defensive path as run_monolithic.
        monkeypatch.setattr(sim, "_pair_template",
                            lambda *args: _RecursionBoom())
        run = run_driver(self.TB, self.DUT)
        assert run.status == RUNTIME
        assert "recursion" in run.detail


class TestEngineSelectionFallback:
    """One engine: nothing selects it, so nothing can misselect it."""

    def test_unset_env_defaults_to_compiled(self):
        context, seeded = _context_from_env({})
        assert context == SimContext()
        assert not seeded
        design = compile_design(self_checking_src(), "tb")
        assert Simulator(design).run().finished
        # Every process ran as a bound compiled program.
        assert all(spec.compiled is not None for spec in design.processes)

    def test_simulator_rejects_unknown_engine(self):
        # The engine argument is gone: a caller still passing one fails
        # loudly instead of silently running something else.
        with pytest.raises(TypeError):
            simulate(self_checking_src(), "tb", engine="quantum")


HOSTILE_DUT = "module top_module(input a, output y); assign y = a; endmodule"


def _hostile_driver(expr: str) -> str:
    """A dump-style driver that prints ``expr`` to stdout and the dump."""
    return ("module tb;\n    reg [15:0] a;\n    wire y;\n"
            "    integer f;\n"
            "    top_module dut(.a(a[0]), .y(y));\n"
            "    initial begin\n"
            '        a = 16\'d3; f = $fopen("results.txt");\n'
            f'        $fdisplay(f, "scenario: 1, s = %d", {expr});\n'
            f'        $display("%d", {expr});\n'
            "        $finish;\n    end\nendmodule")


class TestLongOperatorChains:
    """A left-deep run of operators lowers in a loop, not by recursion:
    sums of 250 terms and more used to hit the recursion limit."""

    def test_300_term_sum_simulates(self):
        run = run_driver(_hostile_driver(" + ".join(["a"] * 300)),
                         HOSTILE_DUT)
        assert run.status == OK, run.detail
        assert run.stdout == ["900"]
        assert run.records[0].values == {"s": "900"}

    @pytest.mark.parametrize("engine", ["compiled", "interpret"])
    def test_600_term_constant_sum_elaborates(self, engine):
        """Constant evaluation (a parameter here) loops over the run as
        well; 600 terms used to raise ``RecursionError`` out of
        elaboration, past ``run_driver``'s typed statuses."""
        src = ("module tb;\n"
               f"    parameter P = {' + '.join(['1'] * 600)};\n"
               '    initial $display("%0d", P);\nendmodule')
        assert SIMULATORS[engine](src, "tb").stdout == ["600"]

    @pytest.mark.parametrize("term", ["<< 0", "&& 1", "== 1"],
                             ids=["shift", "logical", "equality"])
    def test_600_term_parameter_chain_fails_typed(self, term):
        """Shift, logical and equality runs still recurse once per
        operator; past the recursion limit in a ``parameter`` they fail
        as an elaboration error instead of raising ``RecursionError``
        out of every entry point."""
        chain = "1 " + " ".join([term] * 599)
        driver = ("module tb;\n"
                  f"    parameter P = {chain};\n"
                  '    initial begin $display("%0d", P); $finish; end\n'
                  "endmodule")
        dut = HOSTILE_DUT.replace(
            "assign", f"parameter P = {chain};\n    assign")
        expected = (ELABORATION, "recursion limit")
        run = run_driver(driver, HOSTILE_DUT)
        assert (run.status, run.detail) == expected
        mono = run_monolithic(driver, HOSTILE_DUT)
        assert (mono.status, mono.detail) == expected
        assert dut_compiles(dut) == (False, "elaboration: recursion limit")
        variant = HOSTILE_DUT.replace("endmodule", "// v\nendmodule")
        sweep = run_mutant_sweep(driver, [HOSTILE_DUT, variant],
                                 golden_src=HOSTILE_DUT)
        assert [(r.status, r.detail) for r in sweep.runs] \
            == [expected] * 2
        assert (sweep.golden.status, sweep.golden.detail) == expected

    def test_mixed_signed_chain_matches_the_interpreter(self):
        """Per-node signedness survives the loop: in ``n + n + u`` the
        inner sum sign-extends ``n``, and in ``s / t / u`` the first
        division is signed; only the node that meets ``u`` is not."""
        src = ("module tb;\n"
               "    reg signed [3:0] n; reg signed [7:0] s, t;"
               " reg [7:0] u;\n"
               "    initial begin\n"
               "        n = -4'sd2; s = -8'sd6; t = 8'sd3; u = 8'd1;\n"
               '        $display("%d %d %d", n + n + u, s / t / u, '
               "s + s - s * s % t + u);\n"
               "    end\nendmodule")
        outputs = {engine: SIMULATORS[engine](src, "tb").stdout
                   for engine in ("compiled", "interpret")}
        assert outputs["compiled"] == outputs["interpret"] \
            == ["253 254 245"]


class TestExpressionWidthCap:
    """Concatenations and replications wider than a signal may be fail
    typed, before any value that wide is built."""

    @pytest.mark.parametrize("expr, what", [
        ("{20000000{1'b1}}", "replication"),
        ("{" + ", ".join(["a"] * 300) + "}", "concatenation"),
        ("a + {5000{1'b0}}", "replication"),
    ], ids=["replication", "concatenation", "operand"])
    def test_oversized_expression_is_typed_and_quick(self, expr, what):
        start = time.perf_counter()
        run = run_driver(_hostile_driver(expr), HOSTILE_DUT)
        assert time.perf_counter() - start < 1.0
        assert run.status == RUNTIME
        assert f"{what} has unsupported width" in run.detail

    def test_constant_replication_is_capped(self):
        src = ("module tb;\n    parameter P = {8192{1'b1}};\n"
               "    initial $display(\"%d\", P);\nendmodule")
        with pytest.raises(ElaborationError,
                           match="replication has unsupported width 8192"):
            compile_design(src, "tb")

    def test_widths_at_the_cap_still_simulate(self):
        run = run_driver(_hostile_driver("{4096{1'b1}} == {4096{1'b1}}"),
                         HOSTILE_DUT)
        assert run.status == OK, run.detail
        assert run.stdout == ["1"]


def self_checking_src() -> str:
    return "module tb; initial begin $display(\"ok\"); $finish; end endmodule"
