"""SimContext resolution, isolation, shims and the cache facade.

Pins the PR-4 configuration API: explicit argument > active context >
env-seeded root; nested activations restore; contexts neither leak
across threads nor into pool workers (work items carry their own); an
activation beats a steered root; and the ``CacheRegistry`` facade
fronts every cache layer.
"""

import threading

import pytest

from fuzz_budget import (DEFAULT_FUZZ_PROGRAMS, DEFAULT_FUZZ_SEED,
                         fuzz_budget)
from repro.core.caches import CacheRegistry, caches
from repro.core.simulation import (RUNTIME, run_driver, run_driver_batch,
                                   simulation_cache_stats)
from repro.hdl import simulate
from repro.hdl.context import (DEFAULT_MAX_STMTS, SimContext,
                               _context_from_env, current_context,
                               resolve_jobs, root_context, set_root_context,
                               use_context)
from repro.codegen import render_driver
from repro.problems import get_task

TB = 'module tb; initial begin $display("ok"); $finish; end endmodule'

LOOPY_TB = """
module tb;
    integer i;
    initial begin
        for (i = 0; i < 100000; i = i + 1) begin end
        $display("done");
        $finish;
    end
endmodule
"""


# ----------------------------------------------------------------------
# SimContext value semantics
# ----------------------------------------------------------------------
class TestSimContext:
    def test_defaults(self):
        context = SimContext()
        assert context.max_stmts == DEFAULT_MAX_STMTS
        assert context.jobs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimContext(max_time=0)
        with pytest.raises(ValueError):
            SimContext(jobs=-2)
        # bool is an int subclass: True would pass as a limit of 1 and
        # fingerprint as ``true``, a different store key from 1.
        for name in ("max_time", "max_stmts", "jobs"):
            for value in (True, False):
                with pytest.raises(ValueError, match=name):
                    SimContext(**{name: value})

    def test_evolve_revalidates(self):
        context = SimContext()
        assert context.evolve(max_stmts=7).max_stmts == 7
        with pytest.raises(ValueError):
            context.evolve(max_stmts=0)
        # evolve returns a new value; the original is untouched.
        assert context.max_stmts == DEFAULT_MAX_STMTS

    def test_value_object(self):
        assert SimContext() == SimContext()
        assert hash(SimContext()) == hash(SimContext())
        import pickle
        context = SimContext(max_time=9, max_stmts=7)
        assert pickle.loads(pickle.dumps(context)) == context

    def test_warm_start_knobs(self):
        context = SimContext()
        assert context.start_method == "default"
        assert context.warm_start is True
        assert context.evolve(start_method="spawn").start_method == "spawn"
        with pytest.raises(ValueError):
            SimContext(start_method="teleport")
        with pytest.raises(ValueError):
            SimContext(warm_start="yes")

    def test_template_cache_knobs_retired(self):
        # The template caches are fixed-size LRUs; a caller still
        # sizing them fails loudly.
        with pytest.raises(TypeError):
            SimContext(template_cache_size=1)


# ----------------------------------------------------------------------
# Resolution + isolation
# ----------------------------------------------------------------------
class TestResolution:
    def test_nested_use_context_restores(self):
        base = current_context()
        with use_context(max_time=77) as outer:
            assert current_context() is outer
            with use_context(max_stmts=99) as inner:
                assert current_context() is inner
                assert inner.max_time == 77  # inherited
                assert inner.max_stmts == 99
            assert current_context() is outer
        assert current_context() == base

    def test_use_context_restores_on_exception(self):
        base = current_context()
        with pytest.raises(RuntimeError):
            with use_context(max_stmts=99):
                raise RuntimeError("boom")
        assert current_context() == base

    def test_explicit_argument_beats_context(self):
        with use_context(max_stmts=50):
            # Explicit limit wins over the active context's tiny cap.
            result = simulate(LOOPY_TB, "tb", max_stmts=10_000_000)
            assert result.stdout == ["done"]

    def test_context_limits_apply(self):
        from repro.hdl.errors import SimulationLimit
        with use_context(max_stmts=50):
            with pytest.raises(SimulationLimit):
                simulate(LOOPY_TB, "tb")

    def test_threads_do_not_inherit_activation(self):
        seen = {}

        def probe():
            seen["max_stmts"] = current_context().max_stmts

        with use_context(max_stmts=99):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        # A fresh thread starts without an activation: it resolves to
        # the root, not to another thread's request context.
        assert seen["max_stmts"] == root_context().max_stmts

    def test_activation_beats_steered_root(self):
        original = root_context()
        try:
            set_root_context(original.evolve(max_stmts=99))
            assert current_context().max_stmts == 99
            with use_context(max_stmts=7):
                assert current_context().max_stmts == 7
        finally:
            set_root_context(original)

    def test_set_root_context_type_checked(self):
        with pytest.raises(TypeError):
            set_root_context("compiled")


# ----------------------------------------------------------------------
# Environment seeding (the root context)
# ----------------------------------------------------------------------
class TestEnvSeeding:
    def test_full_seed(self, capsys):
        context, seeded = _context_from_env({
            "REPRO_JOBS": "3",
            # Read only by the fuzz suites (tests/fuzz_budget.py).
            "REPRO_FUZZ_PROGRAMS": "lots",
            "REPRO_FUZZ_SEED": "42",
            # Retired selectors: no longer read, not even to warn.
            "REPRO_SIM_ENGINE": "interpret",
            "REPRO_LEXER": "reference",
            "REPRO_MUTANT_ENGINE": "per-mutant",
        })
        assert context == SimContext(jobs=3)
        assert seeded == {"jobs"}
        assert capsys.readouterr().err == ""
        assert _context_from_env({"REPRO_SIM_ENGINE": "interpret"}) == \
            (SimContext(), frozenset())

    def test_template_cache_env_ignored(self, capsys):
        # The template caches have a fixed size; the retired knobs are
        # not read, not even to warn.
        assert _context_from_env({"REPRO_TEMPLATE_CACHE_SIZE": "1",
                                  "REPRO_TEMPLATE_CACHE_BUDGET": "1"}) \
            == (SimContext(), frozenset())
        assert capsys.readouterr().err == ""

    def test_malformed_jobs_warns_and_falls_back(self, capsys):
        # A malformed REPRO_JOBS used to raise ValueError when a
        # campaign resolved its job count; now it degrades like every
        # other malformed knob.
        context, seeded = _context_from_env({"REPRO_JOBS": "four"})
        assert context.jobs == 1
        assert "jobs" not in seeded
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err and "four" in err

    def test_jobs_zero_means_all_cores(self):
        import os
        context, seeded = _context_from_env({"REPRO_JOBS": "0"})
        assert context.jobs == (os.cpu_count() or 1)
        assert "jobs" in seeded

    def test_fuzz_budget_seeds(self, capsys):
        assert fuzz_budget({}) == (DEFAULT_FUZZ_PROGRAMS,
                                   DEFAULT_FUZZ_SEED)
        assert fuzz_budget({"REPRO_FUZZ_PROGRAMS": "17",
                            "REPRO_FUZZ_SEED": "42"}) == (17, 42)
        assert capsys.readouterr().err == ""

    def test_malformed_fuzz_budget_warns(self, capsys):
        assert fuzz_budget({"REPRO_FUZZ_PROGRAMS": "lots"}) \
            == (DEFAULT_FUZZ_PROGRAMS, DEFAULT_FUZZ_SEED)
        assert "REPRO_FUZZ_PROGRAMS" in capsys.readouterr().err
        assert fuzz_budget({"REPRO_FUZZ_PROGRAMS": "0",
                            "REPRO_FUZZ_SEED": "x"}) \
            == (DEFAULT_FUZZ_PROGRAMS, DEFAULT_FUZZ_SEED)
        err = capsys.readouterr().err
        assert "REPRO_FUZZ_PROGRAMS" in err and "REPRO_FUZZ_SEED" in err

    def test_warm_start_knobs_seed(self):
        context, seeded = _context_from_env({
            "REPRO_START_METHOD": "spawn",
            "REPRO_WARM_START": "0",
        })
        assert context.start_method == "spawn"
        assert context.warm_start is False
        assert seeded == {"start_method", "warm_start"}

    def test_trace_dir_seeds(self, tmp_path):
        context, seeded = _context_from_env(
            {"REPRO_TRACE_DIR": str(tmp_path)})
        assert context.trace_dir == str(tmp_path)
        assert seeded == {"trace_dir"}
        # Unset means tracing stays off.
        assert _context_from_env({})[0].trace_dir == ""

    def test_store_dir_seeds(self, tmp_path):
        context, seeded = _context_from_env(
            {"REPRO_STORE_DIR": str(tmp_path)})
        assert context.store_dir == str(tmp_path)
        assert seeded == {"store_dir"}
        # Unset means campaigns run store-less.
        assert _context_from_env({})[0].store_dir == ""

    def test_mutant_engine_validated(self):
        # Lockstep-first is the only sweep strategy: a caller still
        # naming one fails loudly.
        with pytest.raises(TypeError):
            SimContext(mutant_engine="per-mutant")

    def test_trace_and_budget_validated(self):
        with pytest.raises(ValueError):
            SimContext(trace_dir=123)
        with pytest.raises(ValueError):
            SimContext(store_dir=123)

    def test_llm_backend_validated(self):
        for spec in ("", "synthetic", "ollama", "openai", "hf",
                     "fixture", "fixture+synthetic", "fixture+hf"):
            assert SimContext(llm_backend=spec).llm_backend == spec
        for spec in ("bard", "fixture+fixture", "fixture+bard",
                     "ollama+fixture", 7):
            with pytest.raises(ValueError, match="llm_backend"):
                SimContext(llm_backend=spec)

    def test_llm_strings_validated(self):
        with pytest.raises(ValueError, match="llm_model"):
            SimContext(llm_model=3)
        with pytest.raises(ValueError, match="llm_base_url"):
            SimContext(llm_base_url=None)

    def test_llm_knobs_seed(self, tmp_path):
        context, seeded = _context_from_env({
            "REPRO_LLM_BACKEND": "fixture+ollama",
            "REPRO_LLM_MODEL": "qwen2.5:7b",
            "REPRO_LLM_BASE_URL": "http://gpu-box:11434",
            "REPRO_LLM_FIXTURE_DIR": str(tmp_path),
        })
        assert context.llm_backend == "fixture+ollama"
        assert context.llm_model == "qwen2.5:7b"
        assert context.llm_base_url == "http://gpu-box:11434"
        assert context.llm_fixture_dir == str(tmp_path)
        assert {"llm_backend", "llm_model", "llm_base_url",
                "llm_fixture_dir"} <= seeded
        # Unset means the synthetic tier.
        assert _context_from_env({})[0].llm_backend == ""

    def test_malformed_llm_backend_warns_and_falls_back(self, capsys):
        context, seeded = _context_from_env(
            {"REPRO_LLM_BACKEND": "bard"})
        assert context.llm_backend == ""
        assert "llm_backend" not in seeded
        err = capsys.readouterr().err
        assert "REPRO_LLM_BACKEND" in err and "bard" in err

    def test_malformed_warm_start_knobs_warn(self, capsys):
        context, seeded = _context_from_env({
            "REPRO_START_METHOD": "teleport",
            "REPRO_WARM_START": "maybe",
        })
        assert context == SimContext()
        assert not seeded
        err = capsys.readouterr().err
        assert "REPRO_START_METHOD" in err
        assert "REPRO_WARM_START" in err

    def test_campaign_jobs_prefers_active_context(self):
        with use_context(jobs=5):
            assert resolve_jobs(default=1) == 5
        # Without an activation (and REPRO_JOBS unset in the test env)
        # the caller's default applies.
        assert resolve_jobs(default=7) == 7

    def test_campaign_jobs_honours_steered_root(self):
        original = root_context()
        try:
            set_root_context(original.evolve(jobs=6))
            assert resolve_jobs(default=4) == 6
        finally:
            set_root_context(original)
        assert resolve_jobs(default=4) == 4


# ----------------------------------------------------------------------
# Contexts travel to pool workers / don't leak between items
# ----------------------------------------------------------------------
class TestWorkerIsolation:
    def _driver_and_dut(self):
        task = get_task("cmb_and2")
        return (render_driver(task, task.canonical_scenarios()),
                task.golden_rtl())

    def test_batch_ships_context_to_workers(self):
        driver, dut = self._driver_and_dut()
        # A starved time budget must reach the worker processes: if
        # they fell back to their own root context the runs would
        # succeed.  (max_time starves reliably on both engines; the
        # compiled engine only charges max_stmts at loop back-edges.)
        with use_context(max_time=1):
            runs = run_driver_batch(driver, [dut, dut + " // v2"], jobs=2)
        assert all(run.status == RUNTIME for run in runs)
        # Outside the activation the same batch is healthy again, on
        # the same (persistent) workers.
        runs = run_driver_batch(driver, [dut, dut + " // v2"], jobs=2)
        assert all(run.ok for run in runs)

    def test_serial_runs_do_not_leak_limits(self):
        driver, dut = self._driver_and_dut()
        with use_context(max_time=1):
            starved = run_driver(driver, dut)
        assert starved.status == RUNTIME
        assert run_driver(driver, dut).ok


# ----------------------------------------------------------------------
# CacheRegistry facade
# ----------------------------------------------------------------------
class TestCacheRegistry:
    def test_registered_layers(self):
        # "llm_responses" registers when repro.llm.backends loads (the
        # campaign module pulls it in), after the simulation layers.
        assert caches.names() == ("tokenize", "parse", "design", "pair",
                                  "failure", "programs", "union",
                                  "llm_responses")

    def test_stats_shape_matches_legacy_helper(self):
        assert simulation_cache_stats() == caches.stats()
        assert set(caches.stats()) == set(caches.names())

    def test_selective_clear(self):
        registry = CacheRegistry()
        calls = []
        registry.register("a", clear=lambda: calls.append("a"),
                          stats=lambda: {"n": 1})
        registry.register("b", clear=lambda: calls.append("b"))
        registry.clear("a")
        registry.clear()
        assert calls == ["a", "a", "b"]
        # Entries without a stats fn are skipped by stats().
        assert registry.stats() == {"a": {"n": 1}}

    def test_unknown_names_rejected(self):
        registry = CacheRegistry()
        registry.register("a", clear=lambda: None)
        with pytest.raises(ValueError):
            registry.register("a", clear=lambda: None)
        with pytest.raises(KeyError):
            registry.clear("zz")
        with pytest.raises(KeyError):
            registry.stats("zz")
