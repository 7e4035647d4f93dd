"""One benchmark unit: a single campaign in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    python3 campaign_bench/unit.py WORKLOAD SEED SPAWN_TIME [--trace]
                                   [--setup-only]

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it
started this interpreter, so ``setup_s`` covers interpreter start,
imports, the dataset load and, for pooled workloads, the explicit
pre-warm and pool creation that ``run_campaign`` then reuses.  The unit
prints one JSON object as its last stdout line and exits without the
interpreter teardown, which no metric covers.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"


def payload_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def item_key(run) -> str:
    return f"{run.method}/{run.task_id}/{run.seed}"


def _peak_rss_kb(pid: int | str = "self") -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def cache_metrics() -> dict:
    """``<cache>.hit_ratio`` / ``<cache>.size`` from ``caches.stats()``
    plus the compiled-program share ratio."""
    from repro.core.caches import caches
    from repro.hdl.compile import program_cache_stats

    out = {}
    for name, stats in caches.stats().items():
        if name == "programs":
            hits, misses = (stats["programs_shared"],
                            stats["programs_compiled"])
        elif name == "failure":
            hits, misses = stats["hits"], stats["recorded"]
        else:
            hits, misses = stats["hits"], stats["misses"]
        out[f"{name}.hit_ratio"] = _ratio(hits, misses)
        out[f"{name}.size"] = stats["size"]
    programs = program_cache_stats()
    out["compile.share_ratio"] = _ratio(programs["programs_shared"],
                                        programs["programs_compiled"])
    return out


def _timed_run_one(original):
    """Wrap ``run_one`` to attach the item's wall and CPU time to its
    result.

    Installed before the pool forks, so pooled items are timed in the
    worker that ran them; the extra attributes ride back with the
    pickled result and are not part of ``TaskRun.to_payload()``.
    """
    def run_one(*args, **kwargs):
        start, cpu = time.perf_counter(), time.process_time()
        run = original(*args, **kwargs)
        object.__setattr__(run, "_bench_item_s", time.perf_counter() - start)
        object.__setattr__(run, "_bench_item_cpu_s",
                           time.process_time() - cpu)
        return run

    return run_one


def main(argv: list[str]) -> dict:
    workload, seed, spawn_time = argv[0], int(argv[1]), float(argv[2])
    traced = "--trace" in argv
    setup_only = "--setup-only" in argv
    sys.path.insert(0, str(HERE))
    from workloads import campaign_plan

    import repro.eval.campaign as campaign_mod
    import repro.core.simulation as simulation
    from repro.eval.store import CampaignStore
    from repro.hdl.context import use_context
    from repro.problems.dataset import load_dataset

    all_ids = [task.task_id for task in load_dataset()]
    task_ids, seeds, n_jobs, with_store = campaign_plan(workload, seed,
                                                        all_ids)
    config = campaign_mod.default_config(task_ids, seeds=seeds,
                                         n_jobs=n_jobs)
    context = config.resolved_context()

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
        # Pool workers fork from this process: trace the parent only.
        os.register_at_fork(after_in_child=tracer.uninstall)
    if n_jobs > 1:
        with use_context(context):
            if context.warm_start:
                campaign_mod.prewarm_campaign_caches(task_ids)
            simulation.get_sim_pool(n_jobs,
                                    start_method=context.start_method,
                                    warm_start=context.warm_start)
    setup_s = time.monotonic() - spawn_time
    if setup_only:
        simulation.shutdown_sim_pool(wait=True)
        return {"setup_s": setup_s}

    campaign_mod.run_one = _timed_run_one(campaign_mod.run_one)
    WORK_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
    try:
        store = CampaignStore(store_dir) if with_store else None
        cpu0 = _cpu_s()
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("campaign"):
                result = campaign_mod.run_campaign(config, store=store)
        else:
            result = campaign_mod.run_campaign(config, store=store)
        campaign_s = time.perf_counter() - start
        workers = simulation.sim_pool_info()["pids"]
        rss_kb = _peak_rss_kb() + sum(_peak_rss_kb(pid) for pid in workers)
        # Reap the workers so RUSAGE_CHILDREN holds their CPU time.
        simulation.shutdown_sim_pool(wait=True)
        cpu_s = _cpu_s() - cpu0
    finally:
        simulation.shutdown_sim_pool(wait=True)
        shutil.rmtree(store_dir, ignore_errors=True)

    out = {"setup_s": setup_s, "campaign_s": campaign_s, "cpu_s": cpu_s,
           "peak_rss_mb": rss_kb / 1024,
           "items": [run._bench_item_s for run in result.runs],
           "item_cpu": [run._bench_item_cpu_s for run in result.runs],
           "digests": {item_key(run): payload_digest(run.to_payload())
                       for run in result.runs}}
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        metrics.update(cache_metrics())
        metrics["trace.campaign_s"] = campaign_s
        spans_path = WORK_DIR / f"spans-{workload}-{seed}.csv.gz"
        count = tracer.write_spans(spans_path)
        print(f"wrote {count} spans to {spans_path}", file=sys.stderr)
        out["trace"] = metrics
        out["trace_wall_s"] = tracer.top_level_s()
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    os._exit(0)
