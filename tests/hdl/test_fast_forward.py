"""Periodic-state fast-forward in the compiled kernel is exact.

Every program runs under the compiled kernel twice, with and without
fast-forward (disabled by patching ``Simulator._fast_forward`` out), and
both runs must agree on everything observable: the exception class and
message, or the finish flag, final time, statement count, output and
final values — plus the kernel time, statement count and buffered output
at the point a limit fired.  The reference interpreter
(``tests/oracles/``), which never fast-forwards, must end the same way.  Each shape also pins whether a skip happened, so
a fixed point that stops being detected (or a non-periodic run that gets
skipped) fails loudly.
"""

import time

import pytest

from oracles import InterpretedSimulator
from repro.codegen import render_driver
from repro.codegen.driver import DriverFaults
from repro.core.simulation import RUNTIME, run_driver
from repro.hdl import SimulationLimit, compile_design
from repro.hdl.simulator import Simulator
from repro.problems import get_task

MAX_TIME = 100_000
MAX_STMTS = 4_000_000

DEAD_CLOCK_TB = """
module top_module(input clk, input d, output reg q);
    always @(posedge clk) q <= d;
endmodule

module tb;
    reg clk;
    reg d;
    wire q;
    integer file;
    top_module dut(.clk(clk), .d(d), .q(q));
    always #5 clk = ~clk;
    initial begin
        file = $fopen("results.txt");
        d = 1;
        @(posedge clk); #1;
        $fdisplay(file, "q = %d", q);
        $finish;
    end
endmodule
"""


def _beside_dead_clock(body: str, decls: str = "") -> str:
    """A ``tb`` whose clock is never initialised, plus ``body``."""
    return f"""
module tb;
    reg clk;
    {decls}
    always #5 clk = ~clk;
    {body}
endmodule
"""


def _run(src: str, engine: str, fast_forward: bool = True,
         **limits) -> tuple[dict, bool]:
    """Simulate ``src``; returns ``(outcome, skipped)``."""
    limits.setdefault("max_time", MAX_TIME)
    limits.setdefault("max_stmts", MAX_STMTS)
    simulator = {"compiled": Simulator,
                 "interpret": InterpretedSimulator}[engine]
    sim = simulator(compile_design(src, "tb"), **limits)
    jumps = []
    original = Simulator._fast_forward

    def spy(self):
        before = self.time
        original(self)
        jumps.append(self.time - before)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "_fast_forward",
                      spy if fast_forward else lambda self: None)
        try:
            result = sim.run()
        except SimulationLimit as exc:
            outcome = {
                "error": (type(exc), str(exc)),
                "time": sim.time,
                "stmt_count": sim.stmt_count,
                "stdout": list(sim.stdout),
                "fd_lines": {fd: list(lines)
                             for fd, lines in sim._fd_lines.items()},
                "fd_partial": dict(sim._fd_partial),
            }
        else:
            outcome = {
                "finished": result.finished,
                "sim_time": result.sim_time,
                "stmt_count": result.stmt_count,
                "stdout": result.stdout,
                "files": result.files,
                "values": {name: sig.value for name, sig
                           in sim.design.signals.items()},
            }
    return outcome, any(jumps)


def _check(src: str, expect_skip: bool, **limits) -> dict:
    fast, skipped = _run(src, "compiled", **limits)
    slow, _ = _run(src, "compiled", fast_forward=False, **limits)
    assert fast == slow
    assert skipped == expect_skip
    interp, _ = _run(src, "interpret", **limits)
    assert ("error" in interp) == ("error" in fast)
    if "error" in fast:
        assert interp["error"][0] is fast["error"][0]
    return fast


def test_dead_clock_is_skipped_exactly():
    outcome = _check(DEAD_CLOCK_TB, expect_skip=True)
    assert outcome["error"][1] == (
        f"simulation exceeded max_time={MAX_TIME} (missing $finish?)")
    assert outcome["time"] <= MAX_TIME


def test_statement_budget_fires_with_exact_time():
    outcome = _check(DEAD_CLOCK_TB, expect_skip=True,
                     max_time=10_000_000, max_stmts=50_000)
    assert outcome["error"][1].startswith(
        "statement budget of 50000 exhausted at t=")
    assert outcome["stmt_count"] == 50_001


def test_straight_line_delays_finish_instead_of_skipping():
    # The initial block's program counter advances through 2000 delays
    # that change no value: the state is never periodic.
    body = "initial begin " + "#10; " * 2000 + "$finish; end"
    outcome = _check(_beside_dead_clock(body), expect_skip=False)
    assert outcome["finished"] and outcome["sim_time"] == 20_000


def test_repeat_delay_loop_finishes_instead_of_skipping():
    body = "initial begin repeat (10000) #5; $finish; end"
    outcome = _check(_beside_dead_clock(body), expect_skip=False)
    assert outcome["finished"] and outcome["sim_time"] == 50_000


def test_per_cycle_display_is_not_a_fixed_point():
    outcome = _check(_beside_dead_clock('always #5 $display("tick");'),
                     expect_skip=False, max_time=20_000)
    assert outcome["error"][0] is SimulationLimit
    assert len(outcome["stdout"]) == 4_000


def test_per_cycle_random_is_not_a_fixed_point():
    # The drawn value is masked away; only the generator state moves.
    src = _beside_dead_clock("always #5 junk = $random & 32'd0;",
                             decls="reg [31:0] junk;")
    _check(src, expect_skip=False, max_time=30_000)


def test_per_cycle_fwrite_is_not_a_fixed_point():
    src = _beside_dead_clock(
        'initial fd = $fopen("out.txt");\n    always #5 $fwrite(fd, "x");',
        decls="integer fd;")
    outcome = _check(src, expect_skip=False, max_time=20_000)
    assert len(outcome["fd_partial"][3]) == 4_000


def test_counting_live_clock_edges_finishes_instead_of_skipping():
    # Values repeat every clock period, but the waiting process holds a
    # fresh wait token after each edge: its loop counter moved.
    src = """
module tb;
    reg clk;
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        repeat (5000) @(posedge clk);
        $finish;
    end
endmodule
"""
    outcome = _check(src, expect_skip=False)
    assert outcome["finished"] and outcome["sim_time"] == 49_995


def test_two_dead_clocks_with_coprime_periods():
    src = """
module tb;
    reg a, b;
    wire both;
    assign both = a & b;
    always #5 a = ~a;
    always #7 b = ~b;
    initial begin
        @(posedge both);
        $finish;
    end
endmodule
"""
    # The joint period spans eleven samples, so the run must be long
    # enough to match one and still leave periods to skip.
    _check(src, expect_skip=True, max_time=1_000_000)


def test_watchdog_before_max_time_finishes():
    outcome = _check(_beside_dead_clock("initial #60000 $finish;"),
                     expect_skip=False)
    assert outcome["finished"] and outcome["sim_time"] == 60_000


def test_watchdog_after_max_time_hits_the_limit():
    outcome = _check(_beside_dead_clock(f"initial #{MAX_TIME * 2} $finish;"),
                     expect_skip=False)
    assert outcome["error"][0] is SimulationLimit


def test_time_reading_clock_is_not_skipped():
    # No value changes, but the process's next step depends on $time.
    src = """
module tb;
    always #5 if ($time > 50000) $finish;
endmodule
"""
    outcome = _check(src, expect_skip=False)
    assert outcome["finished"] and outcome["sim_time"] == 50_005


def test_time_reading_comb_disables_fast_forward():
    # A live clock is periodic too; the continuous assignment folds the
    # absolute time into a value that eventually wakes the watcher.
    src = """
module tb;
    reg clk;
    wire late;
    assign late = clk & ($time > 30000);
    always #5 clk = ~clk;
    initial clk = 0;
    always @(posedge late) $finish;
endmodule
"""
    outcome = _check(src, expect_skip=False)
    assert outcome["finished"] and outcome["sim_time"] == 30_005


def test_missing_clock_init_driver_is_fast():
    task = get_task("seq_div8_tick")
    driver = render_driver(task, task.canonical_scenarios(),
                           DriverFaults(missing_clock_init=True))
    dut = task.golden_rtl()
    run_driver(driver, dut)  # parse, elaborate and compile once
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run = run_driver(driver, dut)
        best = min(best, time.perf_counter() - start)
    assert run.status == RUNTIME
    assert run.detail.startswith("simulation exceeded max_time=")
    assert best < 0.05
