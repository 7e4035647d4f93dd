"""Simulation glue: statuses, record parsing, caching, batching."""

from repro.core.simulation import (ELABORATION, OK, RUNTIME, SYNTAX,
                                   design_template, dut_compiles,
                                   parse_cached, parse_dump, run_driver,
                                   run_driver_batch, run_monolithic,
                                   run_monolithic_batch,
                                   simulation_cache_stats, syntax_ok)
from repro.codegen import render_driver
from repro.problems import get_task


class TestParseDump:
    def test_basic_line(self):
        records = parse_dump(
            ["scenario:  1, a = 3, b = 12, out = 15"])
        assert records[0].scenario == 1
        assert records[0].values == {"a": "3", "b": "12", "out": "15"}

    def test_x_values_preserved(self):
        records = parse_dump(["scenario: 2, q = x"])
        assert records[0].values["q"] == "x"

    def test_noise_lines_skipped(self):
        records = parse_dump(["hello", "scenario: 1, a = 0", ""])
        assert len(records) == 1

    def test_negative_numbers(self):
        records = parse_dump(["scenario: 1, a = -5"])
        assert records[0].values["a"] == "-5"


class TestRunDriver:
    def test_ok_run(self):
        task = get_task("cmb_eq4")
        driver = render_driver(task, task.canonical_scenarios())
        run = run_driver(driver, task.golden_rtl())
        assert run.status == OK
        assert run.records

    def test_driver_syntax_error(self):
        task = get_task("cmb_eq4")
        run = run_driver("module tb(; endmodule", task.golden_rtl())
        assert run.status == SYNTAX
        assert "driver" in run.detail

    def test_dut_syntax_error(self):
        task = get_task("cmb_eq4")
        driver = render_driver(task, task.canonical_scenarios())
        run = run_driver(driver, "module top_module(; endmodule")
        assert run.status == SYNTAX
        assert "dut" in run.detail

    def test_elaboration_error(self):
        task = get_task("cmb_eq4")
        driver = render_driver(task, task.canonical_scenarios())
        # DUT with the wrong port names fails at elaboration.
        run = run_driver(driver,
                         "module top_module(input x, output y);\n"
                         "assign y = x;\nendmodule")
        assert run.status == ELABORATION

    def test_runtime_error_no_finish(self):
        run = run_driver("module tb; initial begin end endmodule",
                         "module top_module(); endmodule")
        assert run.status == RUNTIME

    def test_no_dump_is_runtime(self):
        run = run_driver("module tb; initial $finish; endmodule",
                         "module top_module(); endmodule")
        assert run.status == RUNTIME
        assert "check-points" in run.detail


class TestCaching:
    def test_parse_cached_identity(self):
        source = get_task("cmb_eq4").golden_rtl()
        assert parse_cached(source) is parse_cached(source)

    def test_syntax_ok(self):
        assert syntax_ok("module m(); endmodule")
        assert not syntax_ok("module m(; endmodule")


class TestDutCompiles:
    def test_golden_compiles(self):
        ok, error = dut_compiles(get_task("seq_tff").golden_rtl())
        assert ok and not error

    def test_bad_reference_caught(self):
        ok, error = dut_compiles(
            "module top_module(output o);\n"
            "assign o = ghost;\nendmodule")
        assert not ok
        assert "elaboration" in error


class TestRunMonolithic:
    def test_verdictless_tb_is_runtime(self):
        run = run_monolithic(
            "module tb; initial $finish; endmodule",
            "module top_module(); endmodule")
        assert run.status == RUNTIME

    def test_recursion_error_is_runtime(self, monkeypatch):
        # run_monolithic must have the same defensive path run_driver has.
        import repro.core.simulation as sim

        class _Boom:
            def run(self, **kwargs):
                raise RecursionError

        monkeypatch.setattr(sim, "_pair_template",
                            lambda *args: _Boom())
        run = run_monolithic(
            "module tb; initial $finish; endmodule",
            "module top_module(); endmodule")
        assert run.status == RUNTIME
        assert "recursion" in run.detail


class TestDesignTemplate:
    def test_template_cached_and_state_reset(self):
        src = """
module tb;
    reg [7:0] count;
    initial begin
        count = 0;
        repeat (5) count = count + 8'd1;
        $display("count=%d", count);
        $finish;
    end
endmodule
"""
        template = design_template(src, "tb")
        assert design_template(src, "tb") is template
        first = template.run()
        assert first.stdout == ["count=  5"] or first.stdout == ["count=5"]
        # Second run starts from fresh state, not the mutated signals.
        second = template.run()
        assert second.stdout == first.stdout
        assert second.sim_time == first.sim_time


class TestBatchApis:
    def _driver_and_duts(self):
        task = get_task("cmb_eq4")
        driver = render_driver(task, task.canonical_scenarios())
        golden = task.golden_rtl()
        broken = "module top_module(input x, output y);\nendmodule"
        return driver, golden, broken

    def test_batch_matches_serial(self):
        driver, golden, broken = self._driver_and_duts()
        serial = [run_driver(driver, golden), run_driver(driver, broken)]
        batch = run_driver_batch(driver, [golden, broken])
        assert [r.status for r in batch] == [r.status for r in serial]
        assert batch[0].ok
        assert [rec.values for rec in batch[0].records] \
            == [rec.values for rec in serial[0].records]

    def test_batch_dedups_identical_duts(self):
        driver, golden, _ = self._driver_and_duts()
        before = simulation_cache_stats()["pair"]
        runs = run_driver_batch(driver, [golden, golden, golden])
        after = simulation_cache_stats()["pair"]
        assert len(runs) == 3
        assert all(run.ok for run in runs)
        # Only one unique (driver, dut) elaboration can have been added.
        assert after["misses"] - before["misses"] <= 1

    def test_monolithic_batch(self):
        task = get_task("cmb_eq4")
        golden = task.golden_rtl()
        tb = """
module tb;
    initial begin
        $display("ALL_TESTS_PASSED");
        $finish;
    end
endmodule
"""
        runs = run_monolithic_batch(tb, [golden, golden])
        assert [run.status for run in runs] == [OK, OK]
        assert all(run.verdict for run in runs)
