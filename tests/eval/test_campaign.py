"""Campaign runner: per-method work items, determinism, reporting,
the pluggable method registry, progress across a healed pool and
store-backed resume, serial and pooled."""

import gc
import time
import weakref
from dataclasses import replace
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.simulation as simulation_mod
import repro.eval.campaign as campaign_mod
from repro.core.caches import FULL_COLLECTION_THRESHOLD
from repro.eval import (CampaignStore, EvalLevel,
                        campaign_items, default_config, register_method,
                        registered_methods, render_store_summary,
                        render_table1, render_table2, render_table3,
                        render_usage_summary, run_campaign, run_one,
                        store_key, unregister_method)
from repro.eval.campaign import (METHOD_AUTOBENCH, METHOD_BASELINE,
                                 METHOD_CORRECTBENCH, campaign_method)
from repro.hdl.context import current_context, use_context

EASY_TASK = "cmb_and2"


class TestRunOne:
    @pytest.mark.parametrize("method", (METHOD_BASELINE, METHOD_AUTOBENCH,
                                        METHOD_CORRECTBENCH))
    def test_each_method_produces_a_run(self, method):
        run = run_one(method, EASY_TASK, seed=0)
        assert run.method == method
        assert run.task_id == EASY_TASK
        assert isinstance(run.level, EvalLevel)
        assert run.usage.total_tokens > 0

    def test_correctbench_records_workflow_fields(self):
        run = run_one(METHOD_CORRECTBENCH, EASY_TASK, seed=0)
        assert run.validated is not None
        assert run.gave_up is not None

    def test_deterministic(self):
        a = run_one(METHOD_CORRECTBENCH, "seq_tff", seed=3)
        b = run_one(METHOD_CORRECTBENCH, "seq_tff", seed=3)
        assert a == b

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_one("magic", EASY_TASK, seed=0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_result(self):
        config = default_config(
            task_ids=("cmb_and2", "cmb_eq4", "seq_dff", "seq_tff"),
            seeds=(0,), n_jobs=1)
        return run_campaign(config)

    def test_all_cells_present(self, small_result):
        assert len(small_result.runs) == 3 * 4  # methods x tasks

    def test_renderers_accept_result(self, small_result):
        table1 = render_table1(small_result)
        assert "CorrectBench" in table1
        assert "Eval2" in table1
        table3 = render_table3(small_result)
        assert "Gain" in table3
        assert "Val." in table3
        assert "TOKEN USAGE" in render_usage_summary(small_result)

    def test_table2_static(self):
        table2 = render_table2()
        assert "Eval2" in table2
        assert "golden testbench" in table2

    def test_progress_callback(self):
        seen = []
        config = default_config(task_ids=(EASY_TASK,), seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=1)
        run_campaign(config, progress=lambda i, n, run: seen.append(
            (i, n, run.task_id)))
        assert seen == [(1, 1, EASY_TASK)]

    def test_context_travels_with_items(self):
        # The campaign's resolved context governs its items: a starved
        # time budget downgrades every produced testbench's grade path
        # without leaking into the caller's context.
        config = default_config(task_ids=(EASY_TASK,), seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=1)
        with use_context(max_time=1):
            starved = run_campaign(config).runs[0]
        healthy = run_campaign(config).runs[0]
        assert starved.level < healthy.level
        assert current_context().max_time != 1


# ----------------------------------------------------------------------
# Collector pacing
# ----------------------------------------------------------------------
@pytest.fixture
def default_gc_thresholds():
    """Start from CPython's default generation-2 threshold and restore
    the caller's thresholds afterwards, so other tests see them."""
    saved = gc.get_threshold()
    gc.set_threshold(saved[0], saved[1], 10)
    try:
        yield gc.get_threshold()
    finally:
        gc.set_threshold(*saved)


class _Cycle:
    def __init__(self):
        self.me = self


class TestCollectorPacing:
    def test_serial_campaign_runs_no_full_collection(
            self, default_gc_thresholds):
        full_passes = []

        def probe(phase, info):
            if phase == "start" and info["generation"] == 2:
                full_passes.append(info)

        config = default_config(task_ids=("cmb_alu8", "cmb_eq4"),
                                seeds=(0,), n_jobs=1)
        enabled = gc.isenabled()
        gc.collect()
        gc.callbacks.append(probe)
        try:
            result = run_campaign(config)
        finally:
            gc.callbacks.remove(probe)
        assert len(result.runs) == 6
        assert full_passes == []
        assert gc.get_threshold()[2] >= FULL_COLLECTION_THRESHOLD
        assert gc.get_threshold()[:2] == default_gc_thresholds[:2]
        assert gc.isenabled() == enabled

    def test_caller_threshold_is_not_lowered(self, default_gc_thresholds):
        gen0, gen1, _ = default_gc_thresholds
        gc.set_threshold(gen0, gen1, 5000)
        run_one(METHOD_BASELINE, EASY_TASK, seed=0)
        assert gc.get_threshold() == (gen0, gen1, 5000)

    def test_cycles_are_still_reclaimed(self, default_gc_thresholds):
        run_one(METHOD_BASELINE, EASY_TASK, seed=0)
        cycle = _Cycle()
        ref = weakref.ref(cycle)
        del cycle
        gc.collect()
        assert ref() is None


# ----------------------------------------------------------------------
# Pluggable method registry
# ----------------------------------------------------------------------
class TestMethodRegistry:
    def test_builtins_registered(self):
        for method in (METHOD_CORRECTBENCH, METHOD_AUTOBENCH,
                       METHOD_BASELINE):
            assert method in registered_methods()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_method(METHOD_BASELINE, lambda call: None)

    def test_config_validates_methods_against_registry(self):
        with pytest.raises(ValueError, match="registered"):
            default_config(task_ids=(EASY_TASK,),
                           methods=("baseline", "magic"))

    def test_out_of_tree_method_end_to_end(self):
        # The acceptance scenario: a method this repo has never heard
        # of, registered at runtime, runs through run_one, run_campaign
        # and the CLI without touching the campaign runner.
        from repro.core.baseline import DirectBaseline

        @campaign_method("second-attempt-baseline")
        def _second_attempt(call):
            testbench = DirectBaseline(call.client,
                                       call.task).generate(attempt=1)
            return call.result(call.grade(testbench))

        try:
            run = run_one("second-attempt-baseline", EASY_TASK, seed=0)
            assert run.method == "second-attempt-baseline"
            assert isinstance(run.level, EvalLevel)

            config = default_config(
                task_ids=(EASY_TASK,), seeds=(0,),
                methods=("second-attempt-baseline", METHOD_BASELINE),
                n_jobs=1)
            result = run_campaign(config)
            assert [r.method for r in result.runs] == [
                "second-attempt-baseline", METHOD_BASELINE]

            from repro.cli import main
            assert main(["run", EASY_TASK,
                         "--method", "second-attempt-baseline"]) == 0
        finally:
            unregister_method("second-attempt-baseline")
        with pytest.raises(ValueError):
            run_one("second-attempt-baseline", EASY_TASK, seed=0)


# ----------------------------------------------------------------------
# Progress across a healed pool
# ----------------------------------------------------------------------
class _FlakyPool:
    """Stands in for the shared executor: ``submit`` runs ``fn`` at
    once, except that the future of submission ``fail_after + 1``
    breaks.  ``submitted`` records the task ids in submission order."""

    def __init__(self, fail_after):
        self.fail_after = fail_after
        self.submitted = []

    def submit(self, fn, item):
        self.submitted.append(item[1])  # item[1] == task_id
        future = Future()
        if len(self.submitted) == self.fail_after + 1:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(item))
        return future


def _install_pool(monkeypatch, pool):
    """Route ``pool_imap`` to ``pool`` and make its heal a no-op."""
    monkeypatch.setattr(simulation_mod, "get_sim_pool",
                        lambda jobs, *args, **kwargs: pool)
    monkeypatch.setattr(simulation_mod, "shutdown_sim_pool",
                        lambda wait=True: None)


def _count_worker_calls(monkeypatch) -> list:
    """Wrap the campaign's ``_worker``; returns the task ids it ran."""
    calls = []
    worker = campaign_mod._worker

    def counted(item):
        calls.append(item[1])
        return worker(item)

    monkeypatch.setattr(campaign_mod, "_worker", counted)
    return calls


class TestRetryProgress:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def _config(self):
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              methods=(METHOD_BASELINE,), n_jobs=2)

    def test_legacy_callback_stays_monotonic(self, monkeypatch):
        # The third item's future breaks; the heal submits only the
        # third again.  A store-less campaign computes each item once and
        # reports each index once, in order.
        calls = _count_worker_calls(monkeypatch)
        pool = _FlakyPool(fail_after=2)
        _install_pool(monkeypatch, pool)
        seen = []
        result = run_campaign(self._config(),
                              progress=lambda i, n, run: seen.append((i, n)))
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        assert calls == list(self.TASKS)  # 3 computations, not 5
        assert pool.submitted == [*self.TASKS, "seq_dff"]
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert result.runs == run_campaign(
            replace(self._config(), n_jobs=1)).runs

    def test_exhausted_retries_reraise(self, monkeypatch):
        class DeadPool:
            def submit(self, fn, item):
                raise BrokenProcessPool("still dead")

        _install_pool(monkeypatch, DeadPool())
        with pytest.raises(BrokenProcessPool):
            run_campaign(self._config())


# ----------------------------------------------------------------------
# Persistent store: resume, progress, heal, pooled persistence
# ----------------------------------------------------------------------
def _never_compute(item):  # pragma: no cover - sentinel
    raise AssertionError(f"resume recomputed a stored item: {item!r}")


class TestStoreResume:
    TASKS = ("cmb_and2", "seq_dff")

    def _config(self, **overrides):
        overrides.setdefault("methods",
                             (METHOD_BASELINE, METHOD_AUTOBENCH))
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              n_jobs=1, **overrides)

    def test_campaign_persists_every_item(self, tmp_path):
        store = CampaignStore(tmp_path)
        result = run_campaign(self._config(), store=store)
        assert result.store_hits == 0
        assert result.store_misses == 4
        assert len(store) == 4
        for item, run in zip(campaign_items(self._config()), result.runs):
            assert store.get(store_key(*item)) == run

    def test_resume_answers_from_store_without_recompute(
            self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        cold = run_campaign(self._config(), store=store)
        monkeypatch.setattr(campaign_mod, "_worker", _never_compute)
        resumed = run_campaign(self._config(), store=store, resume=True)
        assert resumed.store_hits == 4
        assert resumed.store_misses == 0
        assert resumed.runs == cold.runs

    def test_partial_resume_computes_only_the_rest(self, tmp_path):
        store = CampaignStore(tmp_path)
        # Seed the store with the baseline half only.
        run_campaign(self._config(methods=(METHOD_BASELINE,)),
                     store=store)
        resumed = run_campaign(self._config(), store=store, resume=True)
        assert resumed.store_hits == 2
        assert resumed.store_misses == 2
        assert resumed.runs == run_campaign(self._config()).runs
        assert store.stats()["entries"] == 4

    def test_without_resume_store_is_write_only(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        again = run_campaign(self._config(), store=store)
        assert again.store_hits == 0
        assert again.store_misses == 4

    def test_context_fingerprint_separates_entries(self, tmp_path):
        store = CampaignStore(tmp_path)
        config = self._config(methods=(METHOD_BASELINE,))
        run_campaign(config, store=store)
        with use_context(max_time=1):
            starved = run_campaign(config, store=store, resume=True)
        assert starved.store_hits == 0  # different result coordinates
        assert len(store) == 4

    def test_legacy_progress_counts_hits_as_completed_work(self,
                                                           tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(methods=(METHOD_BASELINE,)),
                     store=store)
        seen = []
        run_campaign(self._config(), store=store, resume=True,
                     progress=lambda i, n, run: seen.append((i, n)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_store_summary_renders_counters(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        resumed = run_campaign(self._config(), store=store, resume=True)
        summary = render_store_summary(resumed)
        assert "skipped (store hits)      4" in summary
        assert "computed this run         0" in summary
        storeless = render_store_summary(run_campaign(self._config()))
        assert "computed this run         4" in storeless

    def test_store_dir_context_knob_opens_store(self, tmp_path):
        with use_context(store_dir=str(tmp_path)):
            run_campaign(self._config())
            resumed = run_campaign(self._config(), resume=True)
        assert resumed.store_hits == 4
        assert len(CampaignStore(tmp_path)) == 4


class TestStoreHeal:
    """A healed pool with a store persists every item once: only
    outstanding work is submitted again, and progress stays monotonic."""

    TASKS = TestRetryProgress.TASKS

    def test_completed_items_survive_the_heal(self, monkeypatch,
                                              tmp_path):
        calls = _count_worker_calls(monkeypatch)
        pool = _FlakyPool(fail_after=2)
        _install_pool(monkeypatch, pool)
        store = CampaignStore(tmp_path)
        seen = []
        config = default_config(task_ids=self.TASKS, seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)
        result = run_campaign(config, store=store,
                              progress=lambda i, n, run: seen.append((i, n)))
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        assert calls == list(self.TASKS)
        assert pool.submitted == [*self.TASKS, "seq_dff"]
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert len(store) == 3
        assert result.store_misses == 3


class TestPooledStore:
    """A pooled campaign persists each item as it completes."""

    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def _config(self, n_jobs=2):
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              methods=(METHOD_BASELINE, METHOD_AUTOBENCH),
                              n_jobs=n_jobs)

    def test_pooled_matches_serial(self, tmp_path):
        serial = run_campaign(self._config(n_jobs=1))
        pooled = run_campaign(self._config(), store=CampaignStore(tmp_path))
        assert pooled.runs == serial.runs
        assert pooled.store_hits == 0
        assert pooled.store_misses == 6
        assert len(CampaignStore(tmp_path)) == 6

    def test_pooled_resume_skips_stored_items(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        seen = []
        again = run_campaign(
            self._config(), store=store, resume=True,
            progress=lambda i, n, run: seen.append((i, n)))
        assert again.store_hits == 6
        assert again.store_misses == 0
        assert seen == [(i, 6) for i in range(1, 7)]

    def test_finished_items_are_stored_while_an_earlier_one_runs(
            self, monkeypatch, tmp_path):
        # A thread pool stands in for the process pool.  Item 0 runs
        # until items 1-3 are in the store (or 10 s pass).
        config = default_config(task_ids=self.TASKS + ("seq_tff",),
                                seeds=(0,), methods=(METHOD_BASELINE,),
                                n_jobs=4)
        serial = run_campaign(replace(config, n_jobs=1))
        by_task = {run.task_id: run for run in serial.runs}
        store = CampaignStore(tmp_path)
        stored_while_item_0_ran = []

        def worker(item):
            if item[1] == self.TASKS[0]:
                deadline = time.monotonic() + 10
                while len(store) < 3 and time.monotonic() < deadline:
                    time.sleep(0.01)
                stored_while_item_0_ran.append(len(store))
            return by_task[item[1]]

        monkeypatch.setattr(campaign_mod, "_worker", worker)
        with ThreadPoolExecutor(max_workers=4) as pool:
            _install_pool(monkeypatch, pool)
            result = run_campaign(config, store=store)
        assert stored_while_item_0_ran == [3]
        assert result.runs == serial.runs
        assert len(store) == 4
