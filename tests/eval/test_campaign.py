"""Campaign runner: per-method work items, determinism, reporting,
the pluggable method registry, attempt-aware progress and store-backed
resume/shard semantics."""

import gc
import weakref
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.eval.campaign as campaign_mod
from repro.core.caches import FULL_COLLECTION_THRESHOLD
from repro.eval import (CampaignStore, EvalLevel, StoreError,
                        campaign_items, default_config, register_method,
                        registered_methods, render_store_summary,
                        render_table1, render_table2, render_table3,
                        render_usage_summary, run_campaign, run_one,
                        run_sharded_campaign, store_key,
                        unregister_method)
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
# Attempt-aware progress across healed-pool retries
# ----------------------------------------------------------------------
class _FlakyPool:
    """Yields ``runs`` from map(); breaks after ``fail_after`` items on
    the first attempt only."""

    def __init__(self, runs, fail_after):
        self.runs = runs
        self.fail_after = fail_after
        self.attempts = 0

    def map(self, fn, items, chunksize=1):
        self.attempts += 1
        first = self.attempts == 1

        def generate():
            for index, run in enumerate(self.runs):
                if first and index == self.fail_after:
                    raise BrokenProcessPool("worker died")
                yield run
        return generate()


class TestRetryProgress:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def _run_flaky(self, monkeypatch, progress):
        config = default_config(task_ids=self.TASKS, seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)
        runs = [run_one(METHOD_BASELINE, task_id, seed=0)
                for task_id in self.TASKS]
        pool = _FlakyPool(runs, fail_after=2)
        monkeypatch.setattr(campaign_mod, "get_sim_pool",
                            lambda jobs, **kwargs: pool)
        monkeypatch.setattr(campaign_mod, "shutdown_sim_pool",
                            lambda wait=True: None)
        result = run_campaign(config, progress=progress)
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        return result

    def test_legacy_callback_stays_monotonic(self, monkeypatch):
        # The first attempt reports items 1..2 and breaks; the healed
        # retry replays all three.  A three-argument callback must see
        # each index exactly once, in order — no replay from 1.
        seen = []
        self._run_flaky(monkeypatch,
                        lambda i, n, run: seen.append((i, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_attempt_aware_callback_sees_replay(self, monkeypatch):
        seen = []

        def progress(index, total, run, attempt):
            seen.append((attempt, index, total))

        self._run_flaky(monkeypatch, progress)
        assert seen == [(0, 1, 3), (0, 2, 3),
                        (1, 1, 3), (1, 2, 3), (1, 3, 3)]

    def test_exhausted_retries_reraise(self, monkeypatch):
        config = default_config(task_ids=(EASY_TASK,), seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)

        class DeadPool:
            def map(self, fn, items, chunksize=1):
                raise BrokenProcessPool("still dead")

        monkeypatch.setattr(campaign_mod, "get_sim_pool",
                            lambda jobs, **kwargs: DeadPool())
        monkeypatch.setattr(campaign_mod, "shutdown_sim_pool",
                            lambda wait=True: None)
        with pytest.raises(BrokenProcessPool):
            run_campaign(config)


# ----------------------------------------------------------------------
# Persistent store: resume, skip-aware progress, heal, shards
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

    def test_skip_aware_progress_reports_hits_first(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(methods=(METHOD_BASELINE,)),
                     store=store)
        seen = []

        def progress(index, total, run, attempt, skipped=False):
            seen.append((index, total, skipped))

        run_campaign(self._config(), store=store, resume=True,
                     progress=progress)
        assert seen == [(1, 4, True), (2, 4, True),
                        (3, 4, False), (4, 4, False)]

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


class _ItemAwareFlakyPool:
    """Like :class:`_FlakyPool`, but honours the ``items`` it is mapped
    over (the store path remaps only *outstanding* items after a heal,
    so the replayed slice is shorter than the campaign)."""

    def __init__(self, runs_by_task, fail_after):
        self.runs_by_task = runs_by_task
        self.fail_after = fail_after
        self.attempts = 0

    def map(self, fn, items, chunksize=1):
        self.attempts += 1
        first = self.attempts == 1
        items = list(items)

        def generate():
            for index, item in enumerate(items):
                if first and index == self.fail_after:
                    raise BrokenProcessPool("worker died")
                yield self.runs_by_task[item[1]]  # item[1] == task_id
        return generate()


class TestStoreHeal:
    """A healed pool with a store keeps completed items: only
    outstanding work replays, and progress stays monotonic."""

    TASKS = TestRetryProgress.TASKS

    def _run_flaky_with_store(self, monkeypatch, tmp_path, progress):
        config = default_config(task_ids=self.TASKS, seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)
        runs_by_task = {task_id: run_one(METHOD_BASELINE, task_id, seed=0)
                        for task_id in self.TASKS}
        pool = _ItemAwareFlakyPool(runs_by_task, fail_after=2)
        monkeypatch.setattr(campaign_mod, "get_sim_pool",
                            lambda jobs, **kwargs: pool)
        monkeypatch.setattr(campaign_mod, "shutdown_sim_pool",
                            lambda wait=True: None)
        store = CampaignStore(tmp_path)
        result = run_campaign(config, progress=progress, store=store)
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        return result, store, pool

    def test_completed_items_survive_the_heal(self, monkeypatch,
                                              tmp_path):
        seen = []

        def progress(index, total, run, attempt):
            seen.append((attempt, index, total))

        result, store, pool = self._run_flaky_with_store(
            monkeypatch, tmp_path, progress)
        # Attempt 0 lands items 1..2 and persists them; the healed
        # retry computes only the third — completed count is monotonic
        # across the heal, unlike the store-less full replay.
        assert seen == [(0, 1, 3), (0, 2, 3), (1, 3, 3)]
        assert pool.attempts == 2
        assert len(store) == 3
        assert result.store_misses == 3


class TestShardedCampaign:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def _config(self):
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              methods=(METHOD_BASELINE, METHOD_AUTOBENCH),
                              n_jobs=1)

    def test_sharded_matches_unsharded(self, tmp_path):
        unsharded = run_campaign(self._config())
        sharded = run_sharded_campaign(self._config(), shards=2,
                                       store=CampaignStore(tmp_path))
        assert sharded.runs == unsharded.runs
        assert sharded.store_hits == 0
        assert sharded.store_misses == 6
        assert len(CampaignStore(tmp_path)) == 6

    def test_sharded_resume_skips_stored_items(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_sharded_campaign(self._config(), shards=2, store=store)
        seen = []
        again = run_sharded_campaign(
            self._config(), shards=2, store=store,
            progress=lambda i, n, run: seen.append((i, n)))
        assert again.store_hits == 6
        assert again.store_misses == 0
        assert seen == [(i, 6) for i in range(1, 7)]

    def test_store_required(self):
        with pytest.raises(StoreError, match="REPRO_STORE_DIR"):
            run_sharded_campaign(self._config(), shards=2)
        with pytest.raises(ValueError, match="shards"):
            run_sharded_campaign(self._config(), shards=0)

    def test_single_shard_degenerates_to_resume(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        result = run_sharded_campaign(self._config(), shards=1,
                                      store=store)
        assert result.store_hits == 6
        assert result.runs == run_campaign(self._config()).runs
