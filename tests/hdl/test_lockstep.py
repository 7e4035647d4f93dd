"""Lockstep mutant-schemata unions: build, demux, sweep, fallback.

Unit coverage for :mod:`repro.hdl.lockstep` and the
:func:`repro.core.simulation.run_mutant_sweep` facade: the union of a
driver and N DUT variants simulates once and demultiplexes into
per-lane results byte-identical to N separate runs; every
driver/DUT shape the union cannot express raises
:exc:`LockstepUnsupported` and falls back to the per-mutant path with a
recorded reason.  The randomized end of the same contract lives in the
differential fuzz battery (``test_diff_fuzz.py``).
"""

import dataclasses

import pytest

from oracles.demux import demux_lines
from repro.codegen.driver import DUMP_FILE
import repro.core.simulation as simulation
from repro.core.caches import caches
from repro.core.simulation import (_per_mutant_sweep, run_driver,
                                   run_mutant_sweep)
from repro.hdl import ast as hdl_ast
from repro.hdl import current_context
from repro.hdl.compile import program_cache_stats
from repro.hdl.lockstep import (GROUP_DELIM, LANE_DELIM,
                                LockstepUnsupported, build_union,
                                lane_suffix)

DRIVER = """
module tb();
    reg clk;
    reg [3:0] a;
    reg [3:0] b;
    wire [3:0] y;
    integer file;
    integer scenario;
    top_module dut(.clk(clk), .a(a), .b(b), .y(y));
    always #5 clk = ~clk;
    initial begin
        file = $fopen("results.txt");
        clk = 0;
        scenario = 0;
        a = 1; b = 2;
        @(posedge clk); #1;
        scenario = scenario + 1;
        $fdisplay(file, "scenario: %d, a = %d, b = %d, y = %d",
                  scenario, a, b, y);
        a = 3; b = 7;
        @(posedge clk); #1;
        scenario = scenario + 1;
        $fdisplay(file, "scenario: %d, a = %d, b = %d, y = %d",
                  scenario, a, b, y);
        $finish;
    end
endmodule
"""

GOLDEN = """
module top_module(input clk, input [3:0] a, input [3:0] b,
                  output [3:0] y);
    assign y = a + b;
endmodule
"""

# 1^2 == 1+2 but 3^7 != 3+7: diverges at record index 1.
MUT_XOR = GOLDEN.replace("a + b", "a ^ b")
# 1&2 != 1+2: diverges at record index 0.
MUT_AND = GOLDEN.replace("a + b", "a & b")
# Behaviourally identical: never diverges.
MUT_SAME = GOLDEN.replace("a + b", "b + a")


def _dut(body: str) -> str:
    return GOLDEN.replace("assign y = a + b;", body)


# ----------------------------------------------------------------------
# Union build + demux
# ----------------------------------------------------------------------
class TestBuildUnion:
    def test_union_matches_separate_runs(self):
        lanes = [GOLDEN, MUT_XOR, MUT_AND]
        union = build_union(DRIVER, lanes)
        result = simulate_union(union)
        per_lane = demux_lines(result.files[DUMP_FILE], len(lanes))
        for src, lines in zip(lanes, per_lane):
            reference = run_driver(DRIVER, src)
            assert reference.ok
            # Byte-identical dump lines, hence identical records.
            assert lines == reference_dump_lines(DRIVER, src)

    def test_lane_modules_renamed(self):
        union = build_union(DRIVER, [GOLDEN, MUT_XOR])
        names = {module.name for module in union.modules}
        assert "top_module" + lane_suffix(0) in names
        assert "top_module" + lane_suffix(1) in names
        assert "tb" in names
        assert "top_module" not in names

    @pytest.mark.parametrize("driver, reason", [
        (DRIVER.replace("$finish;",
                        '$display("y=%d", y); $finish;'),
         "$display"),
        (DRIVER.replace("$finish;", "if (y > 2) a = 0; $finish;"),
         "if condition"),
        (DRIVER.replace("$finish;",
                        "if ($signed(y) > 2) a = 0; $finish;"),
         "if condition"),
        (DRIVER.replace("$finish;", "a = y; $finish;"),
         "assignment"),
        (DRIVER.replace("$finish;", "@(posedge y[0]); $finish;"),
         "event control"),
        (DRIVER.replace("wire [3:0] y;",
                        "wire [3:0] y;\n    wire z;\n"
                        "    assign z = y[0];"),
         "continuous assign"),
        (DRIVER.replace("wire [3:0] y;",
                        "wire [3:0] y;\n    wire z = y[0];"),
         "net initializer"),
        (DRIVER.replace('"scenario: %d, a = %d, b = %d, y = %d"',
                        '"scenario: %d, a = %d, b = %d, y = %c"'),
         "%c"),
        (DRIVER.replace(".clk(clk), .a(a), .b(b), .y(y)",
                        "clk, a, b, y"),
         "positional"),
        (DRIVER.replace("top_module dut(.clk(clk), .a(a), .b(b), .y(y));",
                        "top_module dut(.clk(clk), .a(a), .b(b), .y(y));\n"
                        "    wire [3:0] y2;\n"
                        "    top_module dut2(.clk(clk), .a(a), .b(b),"
                        " .y(y2));"),
         "2 times"),
    ])
    def test_unsupported_driver_shapes(self, driver, reason):
        with pytest.raises(LockstepUnsupported, match=None) as excinfo:
            build_union(driver, [GOLDEN, MUT_XOR])
        assert reason.lower() in str(excinfo.value).lower()

    def test_random_in_lane_rejected(self):
        lane = _dut("reg [3:0] r;\n"
                    "    always @(posedge clk) r <= $random;\n"
                    "    assign y = r;")
        with pytest.raises(LockstepUnsupported, match="random"):
            build_union(DRIVER, [GOLDEN, lane])

    def test_interface_mismatch_rejected(self):
        lane = GOLDEN.replace("input [3:0] b,", "input [3:0] c,")
        with pytest.raises(LockstepUnsupported, match="interface"):
            build_union(DRIVER, [GOLDEN, lane])

    def test_missing_dut_module_rejected(self):
        lane = GOLDEN.replace("top_module", "other_module")
        with pytest.raises(LockstepUnsupported, match="no module"):
            build_union(DRIVER, [GOLDEN, lane])

    def test_no_lanes_rejected(self):
        with pytest.raises(LockstepUnsupported, match="no lanes"):
            build_union(DRIVER, [])

    def test_one_build_shares_each_renamed_identifier(self):
        def renamed(union) -> list:
            found, stack = [], [union.module("tb")]
            while stack:
                node = stack.pop()
                if isinstance(node, tuple):
                    stack.extend(node)
                elif isinstance(node, hdl_ast.Identifier):
                    if node.name == "y" + lane_suffix(1):
                        found.append(node)
                elif dataclasses.is_dataclass(node):
                    stack.extend(getattr(node, f.name)
                                 for f in dataclasses.fields(node))
            return found

        first = renamed(build_union(DRIVER, [GOLDEN, MUT_XOR]))
        second = renamed(build_union(DRIVER, [GOLDEN, MUT_XOR]))
        # Lane 1's port connection and its field in both dump lines.
        assert len(first) == len(second) == 3
        assert len({id(node) for node in first}) == 1
        assert first[0] is not second[0]

    def test_repeated_dump_line_widens_once(self):
        """The parser shares the driver's repeated dump line, and one
        build widens it once: both check-points run one statement."""
        union = build_union(DRIVER, [GOLDEN, MUT_XOR])
        (initial,) = [item for item in union.module("tb").items
                      if isinstance(item, hdl_ast.InitialBlock)]
        dumps = [stmt for stmt in initial.body.stmts
                 if isinstance(stmt, hdl_ast.SysTaskCall)
                 and stmt.name == "$fdisplay"]
        assert len(dumps) == 2 and dumps[0] is dumps[1]
        assert GROUP_DELIM in dumps[0].args[1].text


G, L = GROUP_DELIM, LANE_DELIM


class TestDemuxLines:
    def test_groups_split_per_lane(self):
        line = (f"scenario: 1, y = {GROUP_DELIM} 3{LANE_DELIM} 9"
                f"{GROUP_DELIM}, tail")
        lanes = demux_lines([line], 2)
        assert lanes == [["scenario: 1, y =  3, tail"],
                         ["scenario: 1, y =  9, tail"]]

    def test_group_free_lines_replicate(self):
        lanes = demux_lines(["shared banner"], 3)
        assert lanes == [["shared banner"]] * 3

    @pytest.mark.parametrize("lines, n_lanes", [
        # A repeated field name: the group is not the last occurrence.
        ([f"scenario: 1, y = {G} 3{L} 9{G}, y = 5"], 2),
        ([f"scenario: 1, y = 5, y = {G}3{L}9{G}"], 2),
        # A group followed by a letter or ``_``.
        ([f"scenario: 1, y = {G}3{L}9{G}abc, z = 1"], 2),
        ([f"scenario: 1, y = {G}3{L}9{G}_q = 4"], 2),
        # Groups not preceded by ``name =``.
        ([f"scenario: 1, {G}3{L}9{G} units, y = 2"], 2),
        ([f"scenario: {G}1{L}2{G}, y = 3"], 2),
        ([f"scenario: 1, y ={G}4{L}5{G}{G}6{L}7{G}"], 2),
        # ``x`` and negative lane values.
        ([f"scenario: 2, y = {G}x{L}-3{L}  7{G}, z = {G}1{L}x{L}-1{G}"],
         3),
        # Group-free lines, noise lines, and lanes that agree.
        (["scenario: 4, y = 1", "noise", "",
          f"noise {G}1{L}2{L}3{G}", f"scenario: 5, y = {G}8{L}8{L}9{G}"], 3),
    ])
    def test_runtime_demux_matches_oracle(self, lines, n_lanes):
        assert simulation._demux_records(lines, n_lanes) == [
            simulation.parse_dump(lane)
            for lane in demux_lines(lines, n_lanes)]


# ----------------------------------------------------------------------
# run_mutant_sweep
# ----------------------------------------------------------------------
class TestRunMutantSweep:
    def test_engines_agree(self):
        mutants = [MUT_XOR, MUT_AND, MUT_SAME]
        lockstep = run_mutant_sweep(DRIVER, mutants, golden_src=GOLDEN)
        per_mutant = _per_mutant_sweep(DRIVER, mutants, GOLDEN,
                                       current_context())
        assert lockstep.engine == "lockstep"
        assert not lockstep.fallback_reason
        assert per_mutant.engine == "per-mutant"
        for ls_run, pm_run in zip(lockstep.runs, per_mutant.runs):
            assert ls_run.status == pm_run.status
            assert ls_run.records == pm_run.records
        assert lockstep.golden.records == per_mutant.golden.records
        assert lockstep.retire_rounds == per_mutant.retire_rounds

    def test_signed_dump_field_is_per_lane(self):
        """A dump field inside a system call, ``$signed(y)``, renders
        each lane's own value."""
        driver = (DRIVER.replace("y = %d", "t = %d")
                  .replace("scenario, a, b, y);",
                           "scenario, a, b, $signed(y));"))
        mutants = [MUT_XOR, MUT_AND, MUT_SAME]
        lockstep = run_mutant_sweep(driver, mutants, golden_src=GOLDEN)
        per_mutant = _per_mutant_sweep(driver, mutants, GOLDEN,
                                       current_context())
        assert lockstep.engine == "lockstep"
        assert lockstep.golden.records == per_mutant.golden.records
        assert ([run.records for run in lockstep.runs]
                == [run.records for run in per_mutant.runs])
        assert lockstep.retire_rounds == per_mutant.retire_rounds \
            == [1, 0, None]

    def test_retire_rounds(self):
        sweep = run_mutant_sweep(DRIVER, [MUT_XOR, MUT_AND, MUT_SAME],
                                 golden_src=GOLDEN)
        assert sweep.retire_rounds == [1, 0, None]

    def test_duplicate_lanes_share_one_simulation(self):
        sweep = run_mutant_sweep(DRIVER, [MUT_XOR, MUT_XOR, GOLDEN],
                                 golden_src=GOLDEN)
        assert sweep.engine == "lockstep"
        assert sweep.runs[0].records == sweep.runs[1].records
        assert sweep.runs[2].records == sweep.golden.records
        assert sweep.retire_rounds == [1, 1, None]

    def test_trivia_copies_simulate_one_lane(self, monkeypatch):
        copies = [f"// RTL implementation attempt {k}\n"
                  + MUT_XOR.replace("a ^ b", "a  ^" + " " * k + "b")
                  for k in range(6)]
        lanes = []
        demux = simulation._demux_records

        def spy(lines, n_lanes):
            lanes.append(n_lanes)
            return demux(lines, n_lanes)

        monkeypatch.setattr(simulation, "_demux_records", spy)
        sweep = run_mutant_sweep(DRIVER, copies)
        assert sweep.engine == "lockstep"
        assert lanes == [1]
        assert len(sweep.runs) == len(copies)
        assert all(run is sweep.runs[0] for run in sweep.runs)
        assert sweep.runs[0].records == run_driver(DRIVER, MUT_XOR).records

        lanes.clear()
        sweep = run_mutant_sweep(DRIVER, [MUT_AND] + copies + [GOLDEN],
                                 golden_src="// golden\n" + GOLDEN)
        assert lanes == [3]
        assert sweep.runs[-1] is sweep.golden
        assert sweep.retire_rounds == [0] + [1] * len(copies) + [None]
        for src, run in zip([MUT_AND] + copies + [GOLDEN], sweep.runs):
            assert run.records == run_driver(DRIVER, src).records

    def test_random_in_one_copys_comment_falls_back(self):
        # The lane check reads every input text, comments included,
        # even where two texts share one tree.
        copy = "// never calls $random\n" + MUT_XOR
        sweep = run_mutant_sweep(DRIVER, [MUT_XOR, copy],
                                 golden_src=GOLDEN)
        assert sweep.engine == "per-mutant"
        assert sweep.fallback_reason \
            == "LockstepUnsupported: $random in a DUT lane"
        assert sweep.runs[0] is sweep.runs[1]
        assert sweep.retire_rounds == [1, 1]

    def test_broken_copies_keep_their_own_errors(self):
        broken = GOLDEN.replace("endmodule", "")
        copy = "// header\n" + broken
        sweep = run_mutant_sweep(DRIVER, [MUT_XOR, broken, copy])
        assert sweep.engine == "per-mutant"
        assert sweep.fallback_reason.startswith("VerilogSyntaxError: ")
        assert sweep.runs[1].detail == run_driver(DRIVER, broken).detail
        assert sweep.runs[2].detail == run_driver(DRIVER, copy).detail
        assert sweep.runs[1].detail != sweep.runs[2].detail

    def test_fallback_on_unsupported_driver(self):
        driver = DRIVER.replace("$finish;",
                                '$display("done"); $finish;')
        sweep = run_mutant_sweep(driver, [MUT_XOR], golden_src=GOLDEN)
        assert sweep.engine == "per-mutant"
        assert "LockstepUnsupported" in sweep.fallback_reason
        assert "$display" in sweep.fallback_reason
        assert sweep.runs[0].ok
        assert sweep.retire_rounds == [1]

    def test_fallback_reason_empty_when_requested(self):
        sweep = _per_mutant_sweep(DRIVER, [MUT_XOR], None,
                                  current_context())
        assert sweep.engine == "per-mutant"
        assert not sweep.fallback_reason

    def test_unknown_engine_rejected(self):
        # Lockstep-first is the only strategy: a caller still naming
        # one fails loudly.
        with pytest.raises(TypeError):
            run_mutant_sweep(DRIVER, [MUT_XOR], mutant_engine="schemata")

    def test_monolithic_always_per_mutant(self):
        tb = """
module tb();
    reg [3:0] a;
    reg [3:0] b;
    wire [3:0] y;
    top_module dut(.clk(1'b0), .a(a), .b(b), .y(y));
    initial begin
        a = 3; b = 7; #1;
        if (y == 10) $display("ALL_TESTS_PASSED");
        else $display("TESTS_FAILED");
        $finish;
    end
endmodule
"""
        sweep = run_mutant_sweep(tb, [GOLDEN, MUT_XOR],
                                 kind="monolithic")
        assert sweep.engine == "per-mutant"
        assert sweep.fallback_reason == ""  # its only path, not a fallback
        assert [run.verdict for run in sweep.runs] == [True, False]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            run_mutant_sweep(DRIVER, [MUT_XOR], kind="cosim")

    def test_empty_sweep(self):
        sweep = run_mutant_sweep(DRIVER, [], golden_src=GOLDEN)
        assert sweep.runs == []
        assert sweep.retire_rounds == []
        assert sweep.golden.ok

    def test_union_template_cached(self):
        mutants = [MUT_XOR, MUT_AND]
        run_mutant_sweep(DRIVER, mutants, golden_src=GOLDEN)
        before = caches.stats()["union"]
        run_mutant_sweep(DRIVER, mutants, golden_src=GOLDEN)
        after = caches.stats()["union"]
        assert after["hits"] > before["hits"]

    def test_rebuilt_union_reuses_programs(self):
        # Programs are keyed by AST value, so a union rebuilt from
        # freshly renamed lane modules compiles nothing new.
        mutants = [MUT_XOR, MUT_AND]
        run_mutant_sweep(DRIVER, mutants, golden_src=GOLDEN)
        caches.clear("union")
        before = program_cache_stats()["programs_compiled"]
        sweep = run_mutant_sweep(DRIVER, mutants, golden_src=GOLDEN)
        assert sweep.engine == "lockstep"
        assert program_cache_stats()["programs_compiled"] == before

    def test_syntax_broken_mutant_falls_back(self):
        broken = GOLDEN.replace("endmodule", "")
        sweep = run_mutant_sweep(DRIVER, [MUT_XOR, broken],
                                 golden_src=GOLDEN)
        assert sweep.engine == "per-mutant"
        assert sweep.fallback_reason
        assert sweep.runs[0].ok
        assert not sweep.runs[1].ok
        assert sweep.retire_rounds == [1, None]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def simulate_union(union):
    from repro.hdl.elaborate import elaborate
    from repro.hdl.simulator import Simulator
    result = Simulator(elaborate(union, "tb"), max_stmts=4_000_000).run()
    assert result.finished
    return result


def reference_dump_lines(driver_src, dut_src):
    from repro.hdl import ast as hdl_ast
    from repro.hdl.elaborate import elaborate
    from repro.hdl.parser import parse_source_cached
    from repro.hdl.simulator import Simulator
    driver = parse_source_cached(driver_src)
    dut = parse_source_cached(dut_src)
    source = hdl_ast.SourceFile(tuple(dut.modules) + tuple(driver.modules))
    result = Simulator(elaborate(source, "tb"), max_stmts=1_000_000).run()
    assert result.finished
    return result.files[DUMP_FILE]
