"""Campaign runner: methods x tasks x seeds -> evaluated results.

Reproduces the paper's experimental protocol: each method is applied to
every task, the experiment is repeated over several seeds ("we repeated
each experiment five times"), and every produced testbench is graded with
AutoEval.

Methods are pluggable: :func:`run_one` dispatches through the
:mod:`repro.eval.methods` registry, so a new strategy registered with
:func:`register_method` / :func:`campaign_method` runs through campaigns
and the CLI without touching this module.

Work items are referenced by ids (task ids, profile names) so campaigns
can fan out over a process pool — TaskSpec objects hold closures and are
deliberately never pickled.  Each item also carries the resolved
:class:`~repro.hdl.context.SimContext`, activated in whichever process
executes the item, so limit and LLM-tier choices neither depend on
pool workers' own defaults nor leak between serial items.
"""

from __future__ import annotations

import inspect
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from ..core.caches import pace_full_collections
from ..core.simulation import (design_template, get_sim_pool,
                               shutdown_sim_pool, _pair_template,
                               _resolve_start_method)
from ..core.validator import CRITERIA, DEFAULT_CRITERION
from ..hdl.context import (SimContext, current_context, resolve_jobs,
                           use_context)
from ..hdl.errors import HdlError
from ..llm.backends import is_live_backend, iter_fan_out, resolve_llm_client
from ..llm.base import MeteredClient, UsageMeter
from ..problems.dataset import get_task, load_dataset
from .golden import golden_artifacts
from .store import CampaignStore, StoreError, store_key
# The method registry (and TaskRun, which runners return) lives in
# repro.eval.methods; re-exported here (redundant-alias form) because
# this module is the historical import point for campaign types.
from .methods import ALL_METHODS as ALL_METHODS
from .methods import METHOD_AUTOBENCH as METHOD_AUTOBENCH
from .methods import METHOD_BASELINE as METHOD_BASELINE
from .methods import METHOD_CORRECTBENCH as METHOD_CORRECTBENCH
from .methods import MethodCall as MethodCall
from .methods import TaskRun as TaskRun
from .methods import campaign_method as campaign_method
from .methods import get_method
from .methods import register_method as register_method
from .methods import registered_methods as registered_methods
from .methods import unregister_method as unregister_method


@dataclass(frozen=True)
class CampaignConfig:
    task_ids: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    profile_name: str = "gpt-4o"
    criterion_name: str = DEFAULT_CRITERION.name
    methods: tuple[str, ...] = ALL_METHODS
    group_size: int = 20
    n_jobs: int = 1
    context: SimContext | None = None  # None = the caller's active context

    def __post_init__(self):
        for method in self.methods:
            get_method(method)  # raises ValueError listing the registry

    def resolved_context(self) -> SimContext:
        """The context campaign items will run under."""
        return (self.context if self.context is not None
                else current_context())


@dataclass
class CampaignResult:
    config: CampaignConfig
    runs: list[TaskRun] = field(default_factory=list)
    #: Items answered from the persistent artifact store (a resumed
    #: campaign's skipped work) vs items computed this run.  Zero/zero
    #: when the campaign ran without a store.
    store_hits: int = 0
    store_misses: int = 0

    def of_method(self, method: str) -> list[TaskRun]:
        return [run for run in self.runs if run.method == method]

    def of(self, method: str, seed: int) -> list[TaskRun]:
        return [run for run in self.runs
                if run.method == method and run.seed == seed]


def default_config(task_ids: Iterable[str] | None = None,
                   seeds: Sequence[int] = (0,), **overrides,
                   ) -> CampaignConfig:
    if task_ids is None:
        task_ids = [task.task_id for task in load_dataset()]
    return CampaignConfig(task_ids=tuple(task_ids), seeds=tuple(seeds),
                          **overrides)


# ----------------------------------------------------------------------
# Single work item (also the process-pool worker)
# ----------------------------------------------------------------------
def run_one(method: str, task_id: str, seed: int,
            profile_name: str = "gpt-4o",
            criterion_name: str = DEFAULT_CRITERION.name,
            group_size: int = 20,
            context: SimContext | None = None) -> TaskRun:
    """Run one registered method on one (task, seed) item.

    The item executes under ``context`` (default: the caller's active
    context) via :func:`use_context`, so the configuration applies in
    whichever process runs it and is restored afterwards — serial
    campaigns cannot leak a limit into later work.

    The model client resolves through
    :func:`repro.llm.backends.resolve_llm_client`: the context's
    ``llm_backend`` selects the synthetic tier (the default), a live
    adapter stack, or fixture record/replay — campaigns, the CLI, and
    the service all inherit the choice through this one point.

    Every work item passes through here — serial campaigns, sim-pool
    workers, the live-backend thread fan-out, ``repro run`` and the
    service — so this is where the process's full garbage collections
    are paced (:func:`repro.core.caches.pace_full_collections`).  The
    process keeps that setting after the item returns.
    """
    pace_full_collections()
    runner = get_method(method)
    if context is None:
        context = current_context()
    with use_context(context):
        task = get_task(task_id)
        criterion = CRITERIA[criterion_name]
        meter = UsageMeter()
        inner = resolve_llm_client(profile_name, seed, context=context,
                                   task_id=task_id, method=method)
        client = MeteredClient(inner, meter)
        call = MethodCall(method=method, task=task, seed=seed,
                          client=client, meter=meter,
                          golden=golden_artifacts(task_id),
                          criterion=criterion, group_size=group_size)
        try:
            return runner(call)
        finally:
            close = getattr(inner, "close", None)
            if close is not None:  # flush a fixture recording's sink
                close()


def _worker(item: tuple) -> TaskRun:
    method, task_id, seed, profile, criterion, group_size, context = item
    return run_one(method, task_id, seed, profile, criterion, group_size,
                   context=context)


def prewarm_campaign_caches(task_ids: Iterable[str]) -> int:
    """Warm this process's caches with each task's golden artifacts.

    For every task id the golden RTL is parsed and elaborated into a
    design template, and the canonical (golden driver, golden RTL)
    pairing is elaborated too — the sources every validator matrix and
    AutoEval sweep of that task re-simulates.  Returns the number of
    tasks warmed.

    Campaigns and the shard coordinator call this before creating
    their worker processes (when the resolved context's ``warm_start``
    flag is set), so fork-started workers inherit the templates instead
    of rebuilding them per item.  A task whose golden artifacts fail to
    build is skipped — the campaign item itself will surface the error.
    """
    from ..codegen import render_driver

    warmed = 0
    for task_id in task_ids:
        try:
            task = get_task(task_id)
            golden = task.golden_rtl()
            driver = render_driver(task, task.canonical_scenarios())
            design_template(golden, "top_module")
            _pair_template(golden, driver, "tb")
        except (KeyError, HdlError):  # pragma: no cover - defensive
            continue
        warmed += 1
    return warmed


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def _accepts_keyword(progress, name: str) -> bool:
    """Does ``progress`` accept keyword ``name``?"""
    try:
        signature = inspect.signature(progress)
    except (TypeError, ValueError):  # builtins, odd callables
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if (parameter.name == name
                and parameter.kind is not inspect.Parameter.VAR_POSITIONAL):
            return True
    return False


class _ProgressReporter:
    """Attempt- and skip-aware progress fan-out.

    A healed-pool retry reruns outstanding items, which used to replay
    indices from 1 into the caller's callback — a monotonicity break
    across attempts.  Callbacks that accept an ``attempt`` keyword get
    every replay labelled with the attempt number; legacy
    three-argument callbacks see each index at most once (a high-water
    mark across attempts), keeping their view strictly monotonic.

    Store-satisfied items (a resumed campaign's skipped work) count as
    completed work: they are reported through the same callback, in
    item order, before any computation starts, so ``index``/``total``
    always measure real campaign progress.  Callbacks additionally
    accepting a ``skipped`` keyword can tell a store hit from a
    computed result.
    """

    def __init__(self, progress, total: int):
        self._progress = progress
        self._total = total
        self._attempt_aware = (progress is not None
                               and _accepts_keyword(progress, "attempt"))
        self._skip_aware = (progress is not None
                            and _accepts_keyword(progress, "skipped"))
        self._high_water = 0

    def report(self, index: int, run: TaskRun, attempt: int,
               skipped: bool = False) -> None:
        if self._progress is None:
            return
        if self._attempt_aware:
            kwargs = {"attempt": attempt}
            if self._skip_aware:
                kwargs["skipped"] = skipped
            self._progress(index, self._total, run, **kwargs)
        elif index > self._high_water:
            self._high_water = index
            self._progress(index, self._total, run)


def campaign_items(config: CampaignConfig,
                   context: SimContext | None = None) -> list[tuple]:
    """The campaign's work items, in canonical (reporting) order.

    Each item tuple is positionally compatible with
    :func:`repro.eval.store.store_key`, so ``store_key(*item)`` is the
    item's persistent identity.
    """
    if context is None:
        context = config.resolved_context()
    return [(method, task_id, seed, config.profile_name,
             config.criterion_name, config.group_size, context)
            for method in config.methods
            for seed in config.seeds
            for task_id in config.task_ids]


def _resolve_store(context: SimContext,
                   store: CampaignStore | None) -> CampaignStore | None:
    """An explicit ``store`` argument wins; otherwise the context's
    ``store_dir`` knob (seeded from ``REPRO_STORE_DIR``) opens one;
    otherwise the campaign runs store-less."""
    if store is not None:
        return store
    if context.store_dir:
        return CampaignStore(context.store_dir)
    return None


def run_campaign(config: CampaignConfig, progress=None, *,
                 store: CampaignStore | None = None,
                 resume: bool = False) -> CampaignResult:
    """Run the full campaign, optionally over the shared process pool.

    Parallel campaigns draw workers from the persistent simulation pool
    (:func:`repro.core.simulation.get_sim_pool`), so consecutive
    campaigns — and interleaved batch simulation calls — reuse the same
    worker processes and their warm caches instead of paying a pool
    spin-up per run.  Every work item carries the campaign's resolved
    :class:`SimContext`; its ``start_method`` / ``warm_start`` knobs
    select how the pool spawns workers and whether the campaign
    pre-warms them (see :func:`prewarm_campaign_caches`).

    ``progress`` is called as ``progress(index, total, run)`` after each
    completed item; pass a callback accepting an ``attempt`` keyword to
    also observe healed-pool retries, and a ``skipped`` keyword to tell
    store hits from computed results (see :class:`_ProgressReporter`).

    With a ``store`` (explicit argument, or opened from the resolved
    context's ``store_dir`` / ``REPRO_STORE_DIR``), every completed item
    is persisted immediately — a killed campaign loses at most the item
    in flight.  ``resume=True`` additionally answers already-stored
    items without resimulating them; hits are reported
    through ``progress`` first (with ``skipped=True``) and counted in
    ``CampaignResult.store_hits``.  A healed-pool retry with a store
    keeps completed items instead of replaying the whole campaign.
    """
    context = config.resolved_context()
    items = campaign_items(config, context)
    store = _resolve_store(context, store)

    result = CampaignResult(config)
    reporter = _ProgressReporter(progress, len(items))
    runs: list[TaskRun | None] = [None] * len(items)
    completed = 0

    if store is not None and resume:
        for index, item in enumerate(items):
            hit = store.get(store_key(*item))
            if hit is not None:
                runs[index] = hit
                completed += 1
                reporter.report(completed, hit, attempt=0, skipped=True)
    if store is not None:
        result.store_hits = completed
        result.store_misses = len(items) - completed

    def record(index: int, run: TaskRun, attempt: int = 0) -> None:
        nonlocal completed
        runs[index] = run
        if store is not None:
            store.put(store_key(*items[index]), run)
        completed += 1
        reporter.report(completed, run, attempt)

    pending = [index for index in range(len(items)) if runs[index] is None]
    n_jobs = config.n_jobs or 1
    if not pending:
        pass  # fully store-satisfied: nothing to simulate
    elif n_jobs > 1 and is_live_backend(context.llm_backend):
        # Live-backend items are I/O-bound (the process waits on
        # sockets, not simulations) and their clients hold locks and
        # connections that cannot cross a process boundary: fan out on
        # threads instead of the sim pool.  Wire concurrency stays
        # bounded by the backends' global in-flight cap regardless of
        # n_jobs.
        for offset, run in enumerate(
                iter_fan_out(_worker, [items[index] for index in pending],
                             max_workers=n_jobs)):
            record(pending[offset], run)
    elif n_jobs > 1:
        # Pre-warm the parent's caches from the task list, so the
        # forked workers of the pool created below inherit warm state
        # instead of every worker rebuilding the same golden templates
        # per item.
        if context.warm_start:
            with use_context(context):
                prewarm_campaign_caches(config.task_ids)
        # A killed worker breaks the shared executor, and a concurrent
        # get_sim_pool grow request can shut it down mid-map (surfacing
        # as RuntimeError) — the same pair _pool_map recovers from.
        # Heal the pool and rerun once; a genuine worker error simply
        # re-raises from the retry.
        for attempt in (0, 1):
            try:
                pool = get_sim_pool(n_jobs,
                                    start_method=context.start_method,
                                    warm_start=context.warm_start)
                if store is None:
                    # Store-less semantics (unchanged): a healed pool
                    # replays the whole campaign, each attempt
                    # reporting indices from 1.
                    for index, run in enumerate(pool.map(_worker, items,
                                                         chunksize=4)):
                        runs[index] = run
                        reporter.report(index + 1, run, attempt)
                else:
                    # With a store, completed items survived the break
                    # (they were persisted as they finished): only
                    # outstanding items replay, and the completed count
                    # stays monotonic across the heal.
                    todo = [index for index in pending
                            if runs[index] is None]
                    for offset, run in enumerate(
                            pool.map(_worker,
                                     [items[index] for index in todo],
                                     chunksize=4)):
                        record(todo[offset], run, attempt)
                break
            except (BrokenProcessPool, RuntimeError):
                shutdown_sim_pool(wait=False)
                if attempt:
                    raise
    else:
        for index in pending:
            record(index, _worker(items[index]))

    result.runs = [run for run in runs if run is not None]
    return result


# ----------------------------------------------------------------------
# Shard coordinator
# ----------------------------------------------------------------------
def _shard_worker(payload: tuple) -> tuple[int, int]:
    """One shard: open the shared store, skip its already-stored items
    (``resume=True``), run the rest of the task slice serially, persist
    every completed item.  Returns the shard's (store_hits,
    store_misses) pair for the coordinator's totals."""
    config, store_dir = payload
    store = CampaignStore(store_dir)
    result = run_campaign(config, store=store, resume=True)
    return result.store_hits, result.store_misses


def run_sharded_campaign(config: CampaignConfig, shards: int,
                         store: CampaignStore | None = None,
                         progress=None) -> CampaignResult:
    """Fan the campaign's task list out over ``shards`` worker
    processes sharing one persistent store.

    The coordinator pre-warms its caches (when the resolved context's
    ``warm_start`` flag is set), so forked workers inherit them, and
    round-robins task slices to fresh worker processes; each worker
    skips already-stored items (via ``run_campaign(..., resume=True)``),
    runs the rest of its slice serially, and persists every completed
    item.  The final
    :class:`CampaignResult` is assembled from the store in canonical
    item order, so reports are identical to an unsharded run.
    ``store_hits`` / ``store_misses`` aggregate the workers' counters —
    a resumed sharded campaign skips already-stored items exactly like
    an unsharded resume.

    A store is required (explicit argument, the context's
    ``store_dir``, or ``REPRO_STORE_DIR``): it is the only channel
    results travel back through.  Raises :class:`StoreError` without
    one, or if a worker exits leaving its slice incomplete.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    context = config.resolved_context()
    store = _resolve_store(context, store)
    if store is None:
        raise StoreError(
            "sharded campaigns need a persistent store: pass store=, "
            "set the context's store_dir, or export REPRO_STORE_DIR")
    if shards == 1:
        return run_campaign(config, progress, store=store, resume=True)

    if context.warm_start:
        with use_context(context):
            prewarm_campaign_caches(config.task_ids)

    slices = [config.task_ids[shard::shards] for shard in range(shards)]
    payloads = [(replace(config, task_ids=chunk, n_jobs=1,
                         context=context), str(store.root))
                for chunk in slices if chunk]
    mp_context = multiprocessing.get_context(
        _resolve_start_method(context.start_method))
    hits = misses = 0
    with ProcessPoolExecutor(max_workers=len(payloads),
                             mp_context=mp_context) as executor:
        for shard_hits, shard_misses in executor.map(_shard_worker,
                                                     payloads):
            hits += shard_hits
            misses += shard_misses

    items = campaign_items(config, context)
    result = CampaignResult(config, store_hits=hits, store_misses=misses)
    reporter = _ProgressReporter(progress, len(items))
    for index, item in enumerate(items):
        run = store.get(store_key(*item))
        if run is None:
            raise StoreError(
                f"shard workers left item unwritten: method={item[0]!r} "
                f"task={item[1]!r} seed={item[2]!r}")
        result.runs.append(run)
        reporter.report(index + 1, run, attempt=0)
    return result


def campaign_jobs_from_env(default: int = 1) -> int:
    """Resolve worker count from the active context / ``REPRO_JOBS``.

    Delegates to :func:`repro.hdl.context.resolve_jobs`: an active
    context's ``jobs`` wins; otherwise ``REPRO_JOBS`` (``0`` = all
    cores, malformed values warn at seeding time and fall back) applies
    when set, else ``default``.
    """
    return resolve_jobs(default)
