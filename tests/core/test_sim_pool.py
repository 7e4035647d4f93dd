"""Persistent simulation worker pool: the rules of its one door
(``pool_imap``), reuse, growth, clean shutdown, explicit start methods,
workers that inherit a warm parent, and the one-shot heal."""

import contextvars
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.simulation as simulation_mod
from repro.codegen import render_driver
from repro.core.simulation import (clear_simulation_caches, get_sim_pool,
                                   pool_imap, run_driver_batch,
                                   shutdown_sim_pool, sim_pool_info)
from repro.eval.campaign import METHOD_BASELINE, default_config, run_campaign
from repro.hdl import current_context, use_context
from repro.problems import get_task

REPO_ROOT = Path(__file__).resolve().parents[2]


def _driver_and_duts():
    task = get_task("cmb_eq4")
    driver = render_driver(task, task.canonical_scenarios())
    golden = task.golden_rtl()
    # A second, distinct-but-valid DUT variant so the batch has two
    # unique pairs (jobs only engage with > 1 unique DUT).  A comment
    # would not do: batches dedup DUTs by parse tree.
    variant = golden.replace("endmodule", "wire variant;\nendmodule")
    return driver, [golden, variant]


class TestTheDoor:
    @pytest.mark.parametrize("jobs, items", [(1, [3, 1, 2]), (4, [7]),
                                             (4, [])])
    def test_runs_in_process_in_item_order(self, jobs, items):
        shutdown_sim_pool()
        results = list(pool_imap(lambda item: (item, os.getpid()), items,
                                 jobs))
        assert results == [(index, (item, os.getpid()))
                           for index, item in enumerate(items)]
        assert not sim_pool_info()["alive"]

    def test_campaign_context_picks_a_spawn_pool(self):
        shutdown_sim_pool()
        config = default_config(
            ("cmb_and2", "cmb_eq4"), methods=(METHOD_BASELINE,), n_jobs=2,
            context=current_context().evolve(start_method="spawn"))
        pooled = run_campaign(config)
        assert sim_pool_info()["start_method"] == "spawn"
        shutdown_sim_pool()
        assert pooled.runs == run_campaign(
            default_config(config.task_ids, methods=config.methods)).runs


class TestPoolLifecycle:
    def test_pool_reused_across_batches(self):
        """Two consecutive batch calls must run on the same workers
        (same pool object, same worker PIDs) — the per-batch spin-up is
        gone."""
        shutdown_sim_pool()
        driver, duts = _driver_and_duts()

        runs1 = run_driver_batch(driver, duts, jobs=2)
        info1 = sim_pool_info()
        assert all(run.ok for run in runs1)
        assert info1["alive"] and info1["pids"]

        runs2 = run_driver_batch(driver, list(reversed(duts)), jobs=2)
        info2 = sim_pool_info()
        assert all(run.ok for run in runs2)
        assert info2["pids"] == info1["pids"]

    def test_pool_grows_monotonically(self):
        shutdown_sim_pool()
        pool1 = get_sim_pool(1)
        assert get_sim_pool(1) is pool1
        pool3 = get_sim_pool(3)
        assert pool3 is not pool1
        assert sim_pool_info()["workers"] == 3
        # A smaller request reuses the larger pool.
        assert get_sim_pool(2) is pool3
        shutdown_sim_pool()
        assert not sim_pool_info()["alive"]

    def test_shutdown_is_idempotent(self):
        shutdown_sim_pool()
        shutdown_sim_pool()
        assert not sim_pool_info()["alive"]
        # And the pool comes back after a shutdown.
        driver, duts = _driver_and_duts()
        runs = run_driver_batch(driver, duts, jobs=2)
        assert all(run.ok for run in runs)
        assert sim_pool_info()["alive"]

    def test_worker_pids_differ_from_parent(self):
        shutdown_sim_pool()
        pool = get_sim_pool(2)
        pids = {pool.submit(os.getpid).result() for _ in range(4)}
        assert os.getpid() not in pids
        info = sim_pool_info()
        assert pids <= set(info["pids"]) or info["pids"] == ()

    def test_batch_results_match_serial(self):
        driver, duts = _driver_and_duts()
        serial = run_driver_batch(driver, duts, jobs=1)
        pooled = run_driver_batch(driver, duts, jobs=2)
        assert [r.status for r in serial] == [r.status for r in pooled]
        assert [[rec.values for rec in r.records] for r in serial] \
            == [[rec.values for rec in r.records] for r in pooled]


class TestStartMethodAndWarmStart:
    def test_default_pool_reports_platform_method(self):
        shutdown_sim_pool()
        driver, duts = _driver_and_duts()
        run_driver_batch(driver, duts, jobs=1)  # warm the parent
        get_sim_pool(1)
        info = sim_pool_info()
        assert info["start_method"] == multiprocessing.get_start_method()
        # On fork platforms workers inherit warm caches through memory.
        if info["start_method"] == "fork":
            assert info["warm"] == "inherited"
        shutdown_sim_pool()

    def test_cold_created_pool_rewarmed_once_parent_warms(self):
        """A pool created before anything was cached must be recreated
        (warm) the first time warmth is requested on a warm parent —
        otherwise campaigns that pre-warm after an early batch would
        keep cold workers forever."""
        driver, duts = _driver_and_duts()
        clear_simulation_caches()
        shutdown_sim_pool()
        with use_context(start_method="fork"):
            cold_pool = get_sim_pool(2)
            assert sim_pool_info()["warm"] == "cold"
            # Parent warms up after the pool exists (e.g. a serial run
            # or a campaign pre-warm)...
            run_driver_batch(driver, duts, jobs=1)
            # ...so the next warm-requesting lookup recreates the pool,
            # forking workers from the warm parent — exactly once.
            warm_pool = get_sim_pool(2)
            assert warm_pool is not cold_pool
            assert sim_pool_info()["warm"] == "inherited"
            assert get_sim_pool(2) is warm_pool  # no churn afterwards
            runs = run_driver_batch(driver, duts, jobs=2)
        assert all(run.ok for run in runs)
        shutdown_sim_pool()

    def test_unavailable_start_method_raises(self, monkeypatch):
        from repro.core.simulation import _resolve_start_method

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["fork", "spawn"])
        with pytest.raises(ValueError):
            _resolve_start_method("forkserver")

    def test_start_method_change_recreates_pool(self):
        shutdown_sim_pool()
        pool_default = get_sim_pool(2)
        with use_context(start_method="spawn", warm_start=False):
            pool_spawn = get_sim_pool(2)
            assert pool_spawn is not pool_default
            assert sim_pool_info()["start_method"] == "spawn"
        shutdown_sim_pool()

    def test_spawn_pool_matches_fork_results(self):
        """The acceptance equivalence: one batch through a spawn-started
        pool returns exactly what the (default) fork path returns."""
        driver, duts = _driver_and_duts()
        serial = run_driver_batch(driver, duts, jobs=1)
        shutdown_sim_pool()
        with use_context(start_method="spawn"):
            spawned = run_driver_batch(driver, duts, jobs=2)
            info = sim_pool_info()
        assert info["start_method"] == "spawn"
        assert info["warm"] == "cold"
        assert [r.status for r in spawned] == [r.status for r in serial]
        assert [[rec.values for rec in r.records] for r in spawned] \
            == [[rec.values for rec in r.records] for r in serial]
        shutdown_sim_pool()

    def test_spawn_pool_starts_cold_on_warm_parent(self):
        """Spawned workers inherit nothing: the pool reports cold, is
        never recreated for warmth, and still matches serial results."""
        driver, duts = _driver_and_duts()
        shutdown_sim_pool()
        serial = run_driver_batch(driver, duts, jobs=1)  # warms the parent
        with use_context(start_method="spawn"):
            pool = get_sim_pool(2)
            spawned = run_driver_batch(driver, duts, jobs=2)
            assert get_sim_pool(2) is pool  # no warmth-driven churn
            info = sim_pool_info()
        assert info["warm"] == "cold"
        assert [[rec.values for rec in r.records] for r in spawned] \
            == [[rec.values for rec in r.records] for r in serial]
        shutdown_sim_pool()

    def test_warm_start_off_means_cold_spawn_pool(self):
        driver, duts = _driver_and_duts()
        shutdown_sim_pool()
        run_driver_batch(driver, duts, jobs=1)
        with use_context(start_method="spawn", warm_start=False):
            runs = run_driver_batch(driver, duts, jobs=2)
            info = sim_pool_info()
        assert all(run.ok for run in runs)
        assert info["warm"] == "cold"
        shutdown_sim_pool()

    def test_cold_parent_spawn_pool_reports_cold(self):
        clear_simulation_caches()
        shutdown_sim_pool()
        with use_context(start_method="spawn"):
            get_sim_pool(1)
            info = sim_pool_info()
        assert info["warm"] == "cold"
        shutdown_sim_pool()


class _StubPool:
    """Stands in for the shared executor.  ``submit`` completes each
    future at once, in submission order, except that on the first
    attempt an item in ``late`` completes when the item it maps to is
    submitted, just before that item.  The first ``len(failures)`` attempts (one per ``start``, which
    the fake ``get_sim_pool`` calls) complete ``fail_after`` futures and
    break the rest with their failure."""

    def __init__(self, failures, fail_after=2, late=()):
        self.failures = list(failures)
        self.fail_after = fail_after
        self.late = dict(late)
        self.submits = []

    def start(self):
        self.submits.append([])
        self.failure = self.failures.pop(0) if self.failures else None
        self.completed = 0
        self.held = {}

    def submit(self, fn, item):
        self.submits[-1].append(item)
        future = Future()
        if item in self.late and len(self.submits) == 1:
            self.held[self.late[item]] = (future, fn, item)
            return future
        if item in self.held:
            self._complete(*self.held.pop(item))
        self._complete(future, fn, item)
        return future

    def _complete(self, future, fn, item):
        self.completed += 1
        if self.failure is not None and self.completed > self.fail_after:
            future.set_exception(self.failure)
        else:  # a fresh context, as in a worker process
            future.set_result(contextvars.Context().run(fn, item))


class TestPoolImapHeal:
    @pytest.fixture
    def stub(self, monkeypatch):
        """Install a stub pool; returns (install, pool requests,
        shutdown count)."""
        requests, shutdowns = [], []

        def install(pool):
            def fake_get_sim_pool(jobs, start_method=None,
                                  warm_start=None):
                requests.append((jobs, current_context()))
                pool.start()
                return pool
            monkeypatch.setattr(simulation_mod, "get_sim_pool",
                                fake_get_sim_pool)
            monkeypatch.setattr(simulation_mod, "shutdown_sim_pool",
                                lambda wait=True: shutdowns.append(wait))
        return install, requests, shutdowns

    def test_heal_remaps_only_the_unyielded_suffix(self, stub):
        install, requests, shutdowns = stub
        pool = _StubPool([BrokenProcessPool("worker died")])
        install(pool)
        with use_context(max_stmts=123, start_method="fork") as context:
            results = list(pool_imap(_max_stmts, range(5), 2))
        assert results == [(item, (item, 123)) for item in range(5)]
        assert pool.submits == [[0, 1, 2, 3, 4], [2, 3, 4]]
        assert shutdowns == [False]
        # Both attempts see the caller's active context: the pool
        # configuration resolves from it, and every item runs under it.
        assert requests == [(2, context)] * 2

    def test_heal_resubmits_only_unyielded_indices(self, stub):
        # Item 0 finishes after item 2, so the two items yielded before
        # the break are 1 and 2: the heal submits 0, 3 and 4 again.
        install, _, shutdowns = stub
        pool = _StubPool([BrokenProcessPool("worker died")],
                         late={0: 3})
        install(pool)
        results = list(pool_imap(str, range(5), 2))
        assert results == [(1, "1"), (2, "2"), (0, "0"), (3, "3"),
                           (4, "4")]
        assert pool.submits == [[0, 1, 2, 3, 4], [0, 3, 4]]
        assert shutdowns == [False]

    def test_runtime_error_heals_the_same_way(self, stub):
        install, _, shutdowns = stub
        pool = _StubPool([RuntimeError(
            "cannot schedule new futures after shutdown")])
        install(pool)
        assert [result for _, result in pool_imap(str, range(4), 2)] == [
            "0", "1", "2", "3"]
        assert pool.submits == [[0, 1, 2, 3], [2, 3]]
        assert shutdowns == [False]

    def test_second_break_reraises(self, stub):
        install, _, shutdowns = stub
        pool = _StubPool([BrokenProcessPool("worker died"),
                          BrokenProcessPool("still dead")], fail_after=1)
        install(pool)
        yielded = []
        with pytest.raises(BrokenProcessPool, match="still dead"):
            for result in pool_imap(str, range(4), 2):
                yielded.append(result)
        assert yielded == [(0, "0"), (1, "1")]
        assert pool.submits == [[0, 1, 2, 3], [1, 2, 3]]
        assert shutdowns == [False]

    def test_heals_a_real_killed_worker(self, tmp_path):
        """End to end on a real executor: one item kills its worker,
        and every result still arrives, once, from a new pool."""
        marker = tmp_path / "die-once"
        marker.touch()
        shutdown_sim_pool()
        broken = get_sim_pool(2)
        items = [(str(marker), value) for value in range(4)]
        assert sorted(pool_imap(_exit_once, items, 2)) == [
            (0, 0), (1, 1), (2, 2), (3, 3)]
        assert not marker.exists()
        assert get_sim_pool(2) is not broken
        shutdown_sim_pool()


def _max_stmts(item):
    return item, current_context().max_stmts


def _exit_once(item):
    """Return the item's value, except that the first call to find the
    marker file removes it and kills its own worker process."""
    marker, value = item
    try:
        os.remove(marker)
    except FileNotFoundError:
        return value
    os._exit(1)


def test_atexit_shutdown_is_clean():
    """A process that used the persistent pool must exit cleanly (the
    atexit hook tears the workers down; nothing hangs or leaks)."""
    code = (
        "from repro.codegen import render_driver\n"
        "from repro.core.simulation import run_driver_batch, sim_pool_info\n"
        "from repro.problems import get_task\n"
        "task = get_task('cmb_eq4')\n"
        "driver = render_driver(task, task.canonical_scenarios())\n"
        "golden = task.golden_rtl()\n"
        "variant = golden.replace('endmodule', 'wire v;\\nendmodule')\n"
        "runs = run_driver_batch(driver, [golden, variant], jobs=2)\n"
        "assert all(run.ok for run in runs)\n"
        "assert sim_pool_info()['alive']\n"
        "print('POOL_OK')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "POOL_OK" in proc.stdout


def test_pool_worker_runs_nested_work_in_process():
    """Pools never nest: inside a pool worker a nested ``pool_imap`` or
    ``run_driver_batch(..., jobs=2)`` runs in process, equals the serial
    result, and leaves the worker with no pool of its own."""
    code = (
        "from repro.codegen import render_driver\n"
        "from repro.core.simulation import (pool_imap, run_driver_batch,\n"
        "                                   sim_pool_info)\n"
        "from repro.problems import get_task\n"
        "task = get_task('cmb_eq4')\n"
        "driver = render_driver(task, task.canonical_scenarios())\n"
        "golden = task.golden_rtl()\n"
        "duts = [golden, golden.replace('endmodule', 'wire v;\\nendmodule')]\n"
        "def outcome(jobs):\n"
        "    return [(run.status, [rec.values for rec in run.records])\n"
        "            for run in run_driver_batch(driver, duts, jobs=jobs)]\n"
        "def nested(jobs):\n"
        "    inner = [result for _, result in pool_imap(outcome, [1, 1], jobs)]\n"
        "    return outcome(jobs), inner, sim_pool_info()['alive']\n"
        "serial = outcome(1)\n"
        "results = [result for _, result in pool_imap(nested, [2, 2], 2)]\n"
        "assert results == [(serial, [serial, serial], False)] * 2, results\n"
        "assert sim_pool_info()['alive']\n"
        "print('NESTED_OK')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "NESTED_OK" in proc.stdout


def _running(pid: int) -> bool:
    """True while ``pid`` runs; an exited but unreaped worker is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed parent runs no atexit hook; its pool workers must
    still notice and exit instead of living on as orphans."""
    code = (
        "import time\n"
        "from repro.core.simulation import get_sim_pool, sim_pool_info\n"
        "pool = get_sim_pool(2)\n"
        "list(pool.map(time.sleep, [0.3, 0.3]))\n"
        "print(*sim_pool_info()['pids'], flush=True)\n"
        "time.sleep(60)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "orphaned pool workers"
            time.sleep(0.1)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
