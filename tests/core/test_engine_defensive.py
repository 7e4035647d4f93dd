"""Explicit regression tests for the engine's defensive paths.

PR 1 fixed ``$finish`` escaping ``_run_comb`` and added
``RecursionError`` handling to the run_* wrappers — previously these
were only exercised incidentally (via the corpus fixture / one
monolithic test).  This file pins each path directly, on the compiled
simulator and its interpreter oracle where applicable.
"""

import pytest

import repro.core.simulation as sim
from oracles import SIMULATORS
from repro.core.simulation import RUNTIME, run_driver, run_monolithic
from repro.hdl import Simulator, compile_design, simulate
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


def self_checking_src() -> str:
    return "module tb; initial begin $display(\"ok\"); $finish; end endmodule"
