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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.caches import pace_full_collections
from ..core.simulation import design_template, pool_imap, _pair_template
from ..core.validator import CRITERIA, DEFAULT_CRITERION
from ..hdl.context import SimContext, current_context, use_context
from ..hdl.errors import HdlError
from ..llm.backends import is_live_backend, iter_fan_out, resolve_llm_client
from ..llm.base import MeteredClient, UsageMeter
from ..problems.dataset import get_task, load_dataset
from .golden import golden_artifacts
from .store import CampaignStore, store_key
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

    Pooled campaigns call this before creating their worker processes
    (when the resolved context's ``warm_start`` flag is set), so
    fork-started workers inherit the templates instead of rebuilding
    them per item.  A task whose golden artifacts fail to
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
    (:func:`repro.core.simulation.pool_imap`), so consecutive campaigns
    — and interleaved batch simulation calls — reuse the same worker
    processes and their warm caches instead of paying a pool spin-up
    per run.  A broken pool heals once there, re-running only the items
    not yet returned.  Every work item carries the campaign's resolved
    :class:`SimContext`; its ``start_method`` / ``warm_start`` knobs
    select how the pool spawns workers and whether the campaign
    pre-warms them (see :func:`prewarm_campaign_caches`).

    ``progress`` is called as ``progress(index, total, run)`` exactly
    once per item, with ``index`` running 1..``total``.  Every runner
    (serial, threads, pool) yields each item as it completes, so a
    parallel campaign's progress arrives in completion order; ``runs``
    is filled by item index, so the reports are identical either way.

    With a ``store`` (explicit argument, or opened from the resolved
    context's ``store_dir`` / ``REPRO_STORE_DIR``), every item is
    persisted as it completes, so a killed campaign loses at most the
    items in flight.  ``resume=True`` additionally answers already-stored
    items without resimulating them; hits are reported through
    ``progress`` first, in item order, and counted in
    ``CampaignResult.store_hits``.
    """
    context = config.resolved_context()
    items = campaign_items(config, context)
    store = _resolve_store(context, store)
    total = len(items)

    result = CampaignResult(config)
    runs: list[TaskRun | None] = [None] * total
    if store is not None and resume:
        runs = [store.get(store_key(*item)) for item in items]
    pending = [index for index, run in enumerate(runs) if run is None]
    done = total - len(pending)
    if store is not None:
        result.store_hits = done
        result.store_misses = len(pending)
    if progress is not None:
        hits = [run for run in runs if run is not None]
        for index, run in enumerate(hits, 1):
            progress(index, total, run)

    todo = [items[index] for index in pending]
    n_jobs = config.n_jobs
    parallel = n_jobs > 1 and bool(todo)
    # Under the campaign's context, pool_imap resolves the pool's start
    # method and warm start and ships the context with pooled items.
    with use_context(context):
        if parallel and is_live_backend(context.llm_backend):
            # Live-backend items are I/O-bound (the process waits on
            # sockets, not simulations) and their clients hold locks
            # and connections that cannot cross a process boundary: fan
            # out on threads instead of the sim pool.  Wire concurrency
            # stays bounded by the backends' global in-flight cap
            # regardless of n_jobs.
            results = iter_fan_out(_worker, todo, max_workers=n_jobs)
        else:
            # Pre-warm the parent's caches from the task list, so the
            # forked workers of a pool that pool_imap creates inherit
            # warm state instead of every worker rebuilding the same
            # golden templates per item.
            if parallel and context.warm_start:
                prewarm_campaign_caches(config.task_ids)
            results = pool_imap(_worker, todo, n_jobs)

        for index, (position, run) in enumerate(results, done + 1):
            item_index = pending[position]
            runs[item_index] = run
            if store is not None:
                store.put(store_key(*items[item_index]), run)
            if progress is not None:
                progress(index, total, run)

    result.runs = runs
    return result

