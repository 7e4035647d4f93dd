"""Simulation glue: run drivers/testbenches against DUT sources.

This module replaces the ``iverilog + vvp`` invocation of the original
system with the in-process :mod:`repro.hdl` simulator, and layers design
reuse on top of it:

- **parse cache** — text-keyed (:func:`parse_cached`); the validator
  simulates the same driver against 20 RTL samples and AutoEval runs the
  same testbench against 10 mutants.  A text that fails to lex or parse
  is held as its error's shape, so a broken driver (the synthetic LLM's
  Eval0 faults) is lexed and parsed once, by the fault injector's own
  check, and every later ``syntax_ok`` / ``run_driver`` re-raises the
  same :class:`~repro.hdl.errors.VerilogSyntaxError`.
- **elaboration cache** — :func:`design_template` keys a fully
  elaborated + compiled design by ``(source_text, top)``.  The cached
  :class:`DesignTemplate` owns the design *structure* (signals, process
  closures); each run stamps out fresh runtime state (signal values,
  memory words, scheduler queues) before simulating, so repeated runs of
  the same design pay parse/elaborate/compile exactly once.  Failing
  ``(source, top)`` pairs are cached too: non-elaborating mutants
  re-raise their recorded error instead of re-running the front end.
- **batched execution** — :func:`run_driver_batch` /
  :func:`run_monolithic_batch` fan one shared testbench across many DUT
  variants, deduplicating identical sources and optionally spreading
  the work across the *persistent* worker pool (:func:`get_sim_pool`):
  created lazily, reused by every batch and campaign in the process,
  torn down atexit.  Batches, campaigns and the validator study map
  over it through :func:`pool_imap`, which yields each item as it
  completes and is the one place a broken pool heals (once, re-running
  only the items not yet returned).

One layer below, :mod:`repro.hdl.compile` shares slot-indexed compiled
programs across elaborations, so even a *fresh* (driver, DUT) pairing
only re-binds the driver's programs instead of recompiling them.

The simulation limits and the batch worker count resolve through the
active :class:`~repro.hdl.context.SimContext` (explicit argument >
``use_context`` activation > env-seeded root context); batch APIs ship
the resolved context to pool workers as part of each work item, so a
worker never falls back to its own process defaults.  All cache layers register with
:data:`repro.core.caches.caches`; the ``clear_*`` / ``*_stats``
helpers below delegate to that facade.

Forked pool workers start *warm*: they inherit the parent's caches
through memory, so campaigns pre-warm the parent before creating the
pool.  Spawn / forkserver workers (where compiled closures cannot be
pickled across) start cold and build their caches lazily.
``SimContext.start_method`` / ``warm_start`` select the behaviour, and
:func:`sim_pool_info` reports the live pool's state.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from operator import itemgetter

from ..hdl import ast as hdl_ast
from ..hdl.compile import clear_program_cache, program_cache_stats
from ..hdl.context import (START_METHOD_DEFAULT, SimContext,
                           current_context, use_context)
from ..hdl.elaborate import Design, elaborate
from ..hdl.errors import (ElaborationError, FailureShape, HdlError,
                          NotConstantError, VerilogSyntaxError)
from ..hdl.lexer import clear_tokenize_cache, tokenize_cache_stats
from ..hdl.parser import (clear_parse_cache, parse_cache_stats,
                          parse_source_cached)
from ..hdl.simulator import SimulationResult, Simulator
from ..hdl import lockstep as lockstep_mod
from ..hdl.lockstep import LockstepUnsupported, build_union
from ..codegen.driver import DUMP_FILE
from .caches import LruCache, caches

# Failure taxonomy used throughout evaluation:
SYNTAX = "syntax"          # does not parse (Eval0 fails)
ELABORATION = "elaboration"  # parses but does not elaborate
RUNTIME = "runtime"        # simulation crashed / no dump produced
OK = "ok"


# ----------------------------------------------------------------------
# Parse + elaboration caches
# ----------------------------------------------------------------------
def parse_cached(source: str) -> hdl_ast.SourceFile:
    """Parse with a text-keyed cache; raises VerilogSyntaxError."""
    return parse_source_cached(source)


def syntax_ok(source: str) -> bool:
    """Does ``source`` parse?  (Eval0's syntax half.)

    >>> syntax_ok("module m; endmodule")
    True
    >>> syntax_ok("module m(; endmodule")
    False
    """
    try:
        parse_cached(source)
    except VerilogSyntaxError:
        return False
    return True


class DesignTemplate:
    """A cached, compiled design plus the recipe for fresh run state.

    Elaboration produces mutable runtime objects (signal values, memory
    words) embedded in the design structure.  The template snapshots
    their post-elaboration state once; :meth:`run` restores that
    snapshot — and clears any event waiters left by a previous run —
    before simulating, so every run starts from an identical universe
    while sharing the parsed AST, the elaborated structure, and the
    compiled process closures.

    A lock serializes runs of one template: the design's runtime state
    is singular, so concurrent in-process runs must take turns (use the
    process-pool batch APIs for true parallelism).
    """

    __slots__ = ("design", "top", "_signal_init", "_memory_init", "_lock")

    def __init__(self, design: Design):
        self.design = design
        self.top = design.top
        self._signal_init = [(sig, sig.value)
                             for sig in design.signals.values()]
        self._memory_init = [(mem, list(mem.words))
                             for mem in design.memories.values()]
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Restore post-elaboration values and clear scheduler residue."""
        for sig, value in self._signal_init:
            sig.value = value
            if sig.waiters:
                sig.waiters.clear()
        for mem, words in self._memory_init:
            mem.words[:] = words
            if mem.waiters:
                mem.waiters.clear()

    def run(self, max_time: int | None = None,
            max_stmts: int | None = None,
            seed: int = 0) -> SimulationResult:
        """Reset state and simulate.

        ``max_time`` / ``max_stmts`` left as ``None`` resolve through
        the active :class:`SimContext`.

        Note: the returned ``SimulationResult.design`` references the
        *shared* design — snapshot any final signal values you need
        before the next run of the same template.
        """
        with self._lock:
            self.reset()
            try:
                return Simulator(self.design, max_time=max_time,
                                 max_stmts=max_stmts, seed=seed).run()
            finally:
                # The simulator rebinds the design's runtime hooks to
                # itself; restore the defaults so this cached template
                # doesn't pin the finished Simulator (and its stdout /
                # dump buffers / generator frames) in memory.
                design = self.design
                design.runtime_time = lambda: 0
                design.runtime_random = lambda: 0
                design.runtime_fopen = lambda name: 0


# ----------------------------------------------------------------------
# Elaboration-failure caching
# ----------------------------------------------------------------------
# Mutation sweeps generate many variants that fail to parse or
# elaborate; lru_cache does not memoise exceptions, so without this
# layer every sweep re-lexes, re-parses and re-elaborates each broken
# variant on every call.  Only the exception's
# :class:`~repro.hdl.errors.FailureShape` is recorded — never the live
# instance — so the original propagation is untouched and every cache
# hit raises a fresh, identically-rendered instance.  A changed source
# text is a different key, so edits invalidate naturally.
_FAILURE_CACHE_SIZE = 1024
_failure_cache: "OrderedDict[tuple, FailureShape]" = OrderedDict()
_failure_lock = threading.Lock()
_failure_stats = {"hits": 0, "recorded": 0}


def _raise_cached_failure(key: tuple) -> None:
    with _failure_lock:
        shape = _failure_cache.get(key)
        if shape is None:
            return
        _failure_cache.move_to_end(key)
        _failure_stats["hits"] += 1
    shape.reraise()


def _record_failure(key: tuple, exc: Exception) -> None:
    shape = FailureShape(exc)
    with _failure_lock:
        if key not in _failure_cache:
            _failure_stats["recorded"] += 1
            while len(_failure_cache) >= _FAILURE_CACHE_SIZE:
                _failure_cache.popitem(last=False)
            _failure_cache[key] = shape


#: Entries per template layer.  A full seed-0 Table-I campaign, with
#: its pre-warm, holds about 1,000 pair templates, so no measured run
#: evicts; the bound only caps a process that runs far longer.
TEMPLATE_CACHE_SIZE = 4096

_design_templates = LruCache(TEMPLATE_CACHE_SIZE)
_pair_templates = LruCache(TEMPLATE_CACHE_SIZE)
# Lockstep union templates: (driver, lane sources) -> compiled union
# design.  Keys are large (they embed every lane's text) but few — one
# per (driver, mutant-set) pairing — and repeated sweeps of the same
# pairing (R/S matrix reruns, benches) hit it.
_union_templates = LruCache(TEMPLATE_CACHE_SIZE)


def design_template(source_text: str, top: str) -> DesignTemplate:
    """Elaboration cache: ``(source_text, top)`` -> compiled template.

    Failures are cached too: a pair that failed to parse or elaborate
    re-raises the recorded error without re-running the front end.

    >>> src = "module m(output o);\\nassign o = 1'b1;\\nendmodule"
    >>> template = design_template(src, "m")
    >>> design_template(src, "m") is template   # cached: same object
    True
    >>> template.run().design.signal("o").value.to_uint()
    1
    """
    key = (source_text, top)
    _raise_cached_failure(key)
    try:
        return _design_templates.get_or_create(
            key, lambda: DesignTemplate(
                elaborate(parse_cached(source_text), top)))
    except (VerilogSyntaxError, ElaborationError) as exc:
        _record_failure(key, exc)
        raise


def _build_pair_template(dut_src: str, tb_src: str,
                         top: str) -> DesignTemplate:
    dut_ast = parse_cached(dut_src)
    tb_ast = parse_cached(tb_src)
    merged = hdl_ast.SourceFile(tuple(dut_ast.modules)
                                + tuple(tb_ast.modules))
    return DesignTemplate(elaborate(merged, top))


def _pair_template(dut_src: str, tb_src: str, top: str) -> DesignTemplate:
    """Elaboration cache for (DUT, testbench) pairs.

    Merges the two separately-cached ASTs at the module-tuple level (no
    re-parse of concatenated text).  DUT modules come first so testbench
    modules shadow same-named ones, exactly like the pre-cache merge.
    Failures are cached like :func:`design_template`'s.
    """
    key = (dut_src, tb_src, top)
    _raise_cached_failure(key)
    try:
        return _pair_templates.get_or_create(
            key, lambda: _build_pair_template(dut_src, tb_src, top))
    except (VerilogSyntaxError, ElaborationError) as exc:
        _record_failure(key, exc)
        raise


def _clear_failure_cache() -> None:
    with _failure_lock:
        _failure_cache.clear()


def _failure_cache_stats() -> dict:
    with _failure_lock:
        return {"hits": _failure_stats["hits"],
                "recorded": _failure_stats["recorded"],
                "size": len(_failure_cache)}


# Every caching layer registers with the shared facade; registration
# order fixes the key order of ``caches.stats()`` (and therefore of
# ``simulation_cache_stats()``, whose recorded shape predates the
# registry).
caches.register("tokenize", clear=clear_tokenize_cache,
                stats=tokenize_cache_stats)
caches.register("parse", clear=clear_parse_cache,
                stats=parse_cache_stats)
caches.register("design", clear=_design_templates.clear,
                stats=_design_templates.stats)
caches.register("pair", clear=_pair_templates.clear,
                stats=_pair_templates.stats)
caches.register("failure", clear=_clear_failure_cache,
                stats=_failure_cache_stats)
caches.register("programs", clear=clear_program_cache,
                stats=program_cache_stats)
caches.register("union", clear=_union_templates.clear,
                stats=_union_templates.stats)


def clear_template_caches() -> None:
    """Drop elaboration templates and cached failures, keeping the parse
    cache and the shared slot-program cache warm."""
    caches.clear("design", "pair", "failure", "union")


def clear_simulation_caches() -> None:
    """Drop every caching layer (benchmark cold starts): templates,
    cached failures, parsed ASTs and shared compiled programs."""
    caches.clear()


def simulation_cache_stats() -> dict:
    """Hit/miss counters for the caching layers (telemetry)."""
    return caches.stats()


@dataclass(frozen=True)
class Record:
    """One parsed dump line: a check-point of one scenario."""

    scenario: int
    values: dict  # signal name -> decimal string ("x" when undefined)


@dataclass
class DriverRun:
    """Outcome of simulating driver + DUT."""

    status: str  # OK / SYNTAX / ELABORATION / RUNTIME
    records: list[Record] = field(default_factory=list)
    detail: str = ""
    stdout: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == OK


_RECORD_RE = re.compile(r"scenario:\s*(\d+)")
_FIELD_RE = re.compile(r"(\w+)\s*=\s*(x|-?\d+)")


def _parse_dump_line(line: str) -> Record | None:
    match = _RECORD_RE.search(line)
    if not match:
        return None
    values = {name: value for name, value in _FIELD_RE.findall(line)}
    return Record(scenario=int(match.group(1)), values=values)


def parse_dump(lines: list[str]) -> list[Record]:
    """Parse ``scenario: k, a = 1, ...`` dump lines into records.

    >>> parse_dump(["scenario: 2, q = 7, valid = x", "noise"])
    [Record(scenario=2, values={'q': '7', 'valid': 'x'})]
    """
    records = []
    for line in lines:
        record = _parse_dump_line(line)
        if record is not None:
            records.append(record)
    return records


# A widened dump line's value group parses directly when it sits in a
# plain ``name = <group>`` position: the literal before it ends with the
# field-name prefix, the literal after it cannot extend the value token,
# and every lane's token is exactly one field value.  Anything else
# (exotic formats) takes the slow path — reconstruct each lane's line
# and parse it like the per-mutant run would have.
_GROUP_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*$")
_GROUP_VALUE_RE = re.compile(r"\s*(x|-?\d+)")


def _demux_records(lines: list[str],
                   n_lanes: int) -> list[list[Record]]:
    """Per-lane records from a lockstep union run's widened dump.

    Equivalent to the tests' ``demux_lines`` (``tests/oracles/``)
    followed by :func:`parse_dump` per lane (the slow path does exactly
    that, line by line), but the common ``name = value`` shape parses
    the shared line skeleton once and patches only the per-lane group
    fields.
    """
    lanes: list[list[Record]] = [[] for _ in range(n_lanes)]
    for line in lines:
        parts = line.split(lockstep_mod.GROUP_DELIM)
        if len(parts) == 1:
            record = _parse_dump_line(line)
            if record is not None:
                for lane in lanes:
                    lane.append(record)
            continue
        groups = [part.split(lockstep_mod.LANE_DELIM) if i % 2 else part
                  for i, part in enumerate(parts)]

        patches: list[tuple[str, list[str]]] = []
        base_line_parts: list[str] = []
        simple = True
        for i, part in enumerate(groups):
            if not i % 2:
                base_line_parts.append(part)
                continue
            base_line_parts.append(part[0])
            name_match = _GROUP_NAME_RE.search(groups[i - 1])
            following = groups[i + 1] if i + 1 < len(groups) else ""
            if (name_match is None
                    or (following[:1].isalnum() or following[:1] == "_")):
                simple = False
                break
            tokens = []
            for token in part:
                value = _GROUP_VALUE_RE.fullmatch(token)
                if value is None:
                    simple = False
                    break
                tokens.append(value.group(1))
            if not simple:
                break
            patches.append((name_match.group(1), tokens))

        base = _parse_dump_line("".join(base_line_parts)) if simple \
            else None
        if base is not None:
            # parse_dump is last-occurrence-wins per field name; the
            # patch is only faithful if the group is the winning
            # occurrence, which lane 0's parse tells us directly.
            for name, tokens in patches:
                if base.values.get(name) != tokens[0]:
                    base = None
                    break
        if base is None:
            # Slow path: byte-faithful per-lane reconstruction.
            for k in range(n_lanes):
                record = _parse_dump_line("".join(
                    groups[i][k] if i % 2 else groups[i]
                    for i in range(len(groups))))
                if record is not None:
                    lanes[k].append(record)
            continue
        for k in range(n_lanes):
            values = dict(base.values)
            for name, tokens in patches:
                values[name] = tokens[k]
            lanes[k].append(Record(scenario=base.scenario, values=values))
    return lanes


def _simulate_pair(tb_src: str, dut_src: str, tb_label: str):
    """Parse both sources, elaborate the pair and simulate it.

    Returns ``(status, detail, result)``; ``result`` is the
    :class:`SimulationResult` when ``status`` is ``OK``, else ``None``.
    This is the one place a front-end or simulation failure becomes a
    typed status for :func:`run_driver` and :func:`run_monolithic`.
    """
    for label, source in ((tb_label, tb_src), ("dut", dut_src)):
        try:
            parse_cached(source)
        except VerilogSyntaxError as exc:
            return SYNTAX, f"{label}: {exc}", None
    try:
        template = _pair_template(dut_src, tb_src, "tb")
    except VerilogSyntaxError as exc:  # pragma: no cover - defensive
        return SYNTAX, str(exc), None
    except ElaborationError as exc:
        return ELABORATION, str(exc), None
    try:
        return OK, "", template.run()
    except NotConstantError as exc:  # illegal RTL met while lowering
        return ELABORATION, str(exc), None
    except HdlError as exc:  # late elaboration-class errors: still runtime
        return RUNTIME, str(exc), None
    except RecursionError:
        return RUNTIME, "recursion limit", None


def run_driver(driver_src: str, dut_src: str) -> DriverRun:
    """Simulate the hybrid-TB driver against a DUT, collect the dump."""
    status, detail, result = _simulate_pair(driver_src, dut_src, "driver")
    if result is None:
        return DriverRun(status, detail=detail)
    if not result.finished:
        return DriverRun(RUNTIME, detail="simulation ended without $finish")
    lines = result.files.get(DUMP_FILE, [])
    records = parse_dump(lines)
    if not records:
        return DriverRun(RUNTIME, detail="no check-points in dump",
                         stdout=result.stdout)
    return DriverRun(OK, records=records, stdout=result.stdout)


@dataclass
class MonolithicRun:
    """Outcome of simulating a self-checking (baseline) testbench."""

    status: str
    verdict: bool | None = None  # True = TB printed pass
    detail: str = ""


def run_monolithic(tb_src: str, dut_src: str) -> MonolithicRun:
    """Simulate a baseline testbench; parse its printed verdict."""
    from ..codegen.baseline import baseline_verdict

    status, detail, result = _simulate_pair(tb_src, dut_src, "tb")
    if result is None:
        return MonolithicRun(status, detail=detail)
    if not result.finished:
        return MonolithicRun(RUNTIME, detail="no $finish")
    verdict = baseline_verdict(result.stdout)
    if verdict is None:
        return MonolithicRun(RUNTIME, detail="testbench printed no verdict")
    return MonolithicRun(OK, verdict=verdict)


def dut_compiles(dut_src: str) -> tuple[bool, str]:
    """Check a bare DUT for syntax + elaboration errors (Eval0-style).

    >>> dut_compiles(
    ...     "module top_module(output o); assign o = 1'b0; endmodule")
    (True, '')
    """
    try:
        source = parse_cached(dut_src)
    except VerilogSyntaxError as exc:
        return False, f"{SYNTAX}: {exc}"
    try:
        elaborate(source, "top_module")
    except ElaborationError as exc:
        return False, f"{ELABORATION}: {exc}"
    except HdlError as exc:  # pragma: no cover - defensive
        return False, str(exc)
    return True, ""


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
# One ProcessPoolExecutor is shared by every batch and campaign call in
# the process: created lazily on first use, grown monotonically to the
# largest worker count requested, recreated with the same configuration
# if a worker dies (see pool_imap), and torn down atexit.
#
# Workers get warm one way: under **fork** (the Linux default) they
# inherit the parent's token / AST / template / program caches through
# copy-on-write memory, so campaigns pre-warm the parent before the
# pool is created.  **spawn / forkserver** workers begin as blank
# interpreters and build their caches lazily.
_pool_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_start_method = ""
_pool_created_warm = False

#: The layers a forked worker inherits from the parent; used to decide
#: whether this process has any warmth to give workers.
_INHERITED_LAYERS = ("tokenize", "parse", "design", "pair", "failure")


def _caches_have_content() -> bool:
    stats = caches.stats(*_INHERITED_LAYERS)
    return any(layer.get("size", 0) > 0 for layer in stats.values())


def _resolve_start_method(name: str | None) -> str:
    """Map a context ``start_method`` to a concrete multiprocessing
    start method, validating platform availability."""
    if name in (None, "", START_METHOD_DEFAULT):
        return multiprocessing.get_start_method()
    if name not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"start method {name!r} is not available on this platform; "
            f"available: {multiprocessing.get_all_start_methods()}")
    return name


def _exit_with_parent() -> None:
    """Pool-worker initializer: a daemon thread ends the worker once it
    is reparented, since a SIGKILLed parent shuts no pool down and an
    idle worker would wait on its call queue forever."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)
    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def get_sim_pool(jobs: int, start_method: str | None = None,
                 warm_start: bool | None = None) -> ProcessPoolExecutor:
    """Return the shared persistent process pool.

    The pool grows if ``jobs`` exceeds its current worker count (it
    never shrinks) and is recreated if ``start_method`` (explicit
    argument, else the active context's) differs from the live pool's.

    ``warm_start`` (``None`` resolves through the active context) asks
    for workers that inherit this process's caches.  A fork pool
    created while this process was still *cold* (nothing cached — e.g.
    a batch ran before any warm-up) is recreated once, the first time
    warmth is requested and the parent actually has cached state:
    forked workers copy the parent only at creation, so without the
    recreate such a pool would stay cold forever.  A pool created warm
    is never churned: later cache growth does not trigger recreation.
    Spawn / forkserver pools inherit nothing and are never recreated
    for warmth.
    """
    global _pool, _pool_workers, _pool_start_method, _pool_created_warm
    jobs = max(1, int(jobs))
    context = current_context()
    method = _resolve_start_method(start_method or context.start_method)
    warm = context.warm_start if warm_start is None else warm_start
    inherits = warm and method == "fork"
    with _pool_lock:
        if _pool is not None:
            stale_cold = (inherits and not _pool_created_warm
                          and _caches_have_content())
            if (_pool_workers < jobs or _pool_start_method != method
                    or stale_cold):
                _pool.shutdown(wait=False)
                _pool = None
        if _pool is None:
            _pool = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context(method),
                initializer=_exit_with_parent)
            _pool_workers = jobs
            _pool_start_method = method
            _pool_created_warm = inherits and _caches_have_content()
        return _pool


def _pool_load(pool) -> tuple[int, int]:
    """(queue_depth, in_flight) for a live executor.

    ``in_flight`` counts submitted-but-unfinished work items;
    ``queue_depth`` is the subset still parked in the inter-process
    call queue (not yet picked up by a worker).  Read from executor
    internals defensively — a private-attribute rename in a future
    stdlib degrades the counters to zero, never breaks telemetry.
    """
    pending = getattr(pool, "_pending_work_items", None)
    in_flight = len(pending) if pending is not None else 0
    call_queue = getattr(pool, "_call_queue", None)
    try:
        queue_depth = call_queue.qsize() if call_queue is not None else 0
    except (NotImplementedError, OSError):  # pragma: no cover - macOS
        queue_depth = 0
    return queue_depth, in_flight


def sim_pool_info() -> dict:
    """Telemetry: whether the shared pool is alive, its configured
    worker count, worker PIDs, the start method it was created with,
    its warm/cold state, and its current load (``queue_depth`` /
    ``in_flight``) — the counters the service telemetry endpoint and
    ``repro serve --status`` report.

    ``warm`` reports how workers acquired caches *at pool creation*:
    ``"inherited"`` for fork pools forked from a warm parent
    (copy-on-write memory), and ``"cold"`` otherwise (warm-start
    disabled, a spawn / forkserver pool, or nothing cached at creation
    time — though such a fork pool is recreated warm on the next
    warm-requesting call once the parent has cached state; see
    :func:`get_sim_pool`).
    """
    with _pool_lock:
        if _pool is None:
            return {"alive": False, "workers": 0, "pids": (),
                    "start_method": "", "warm": "cold",
                    "queue_depth": 0, "in_flight": 0}
        processes = getattr(_pool, "_processes", None) or {}
        queue_depth, in_flight = _pool_load(_pool)
        return {"alive": True, "workers": _pool_workers,
                "pids": tuple(sorted(processes.keys())),
                "start_method": _pool_start_method,
                "warm": "inherited" if _pool_created_warm else "cold",
                "queue_depth": queue_depth, "in_flight": in_flight}


def shutdown_sim_pool(wait: bool = True) -> None:
    """Tear down the shared pool.  Registered atexit so worker processes
    never outlive the interpreter; safe to call repeatedly."""
    global _pool, _pool_workers, _pool_start_method, _pool_created_warm
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=wait)
            _pool = None
            _pool_workers = 0
            _pool_start_method = ""
            _pool_created_warm = False


atexit.register(shutdown_sim_pool)


def pool_imap(worker, items, jobs: int, *, start_method: str | None = None,
              warm_start: bool | None = None):
    """Run ``worker`` over ``items`` on the persistent pool, one future
    per item, yielding ``(index, result)`` as each item completes.

    A killed worker breaks the executor (``BrokenProcessPool``), and a
    concurrent :func:`get_sim_pool` grow request can shut it down
    mid-map (``RuntimeError: cannot schedule new futures after
    shutdown``).  Both heal the same way, once: the pool is shut down
    and only the indices not yet yielded are submitted again to a fresh
    one.  A second failure re-raises, so a genuine worker-raised
    ``RuntimeError`` surfaces after one retry.  ``start_method`` /
    ``warm_start`` reach :func:`get_sim_pool` on both attempts.
    """
    items = list(items)
    yielded: set[int] = set()

    def attempt():
        pool = get_sim_pool(jobs, start_method, warm_start)
        completed = queue.SimpleQueue()
        futures = {}
        try:
            for index in range(len(items)):
                if index not in yielded:
                    future = pool.submit(worker, items[index])
                    futures[future] = index
                    future.add_done_callback(completed.put)
            for _ in futures:
                future = completed.get()
                result = future.result()
                yielded.add(futures[future])
                yield futures[future], result
        finally:  # a raise or an abandoned stream: drop the rest
            for future in futures:
                future.cancel()

    try:
        yield from attempt()
    except (BrokenProcessPool, RuntimeError):
        shutdown_sim_pool(wait=False)
        yield from attempt()


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------
def _driver_batch_worker(item: tuple) -> DriverRun:
    driver_src, dut_src, context = item
    with use_context(context):
        return run_driver(driver_src, dut_src)


def _monolithic_batch_worker(item: tuple) -> MonolithicRun:
    tb_src, dut_src, context = item
    with use_context(context):
        return run_monolithic(tb_src, dut_src)


def _run_batch(worker, shared_src: str, dut_srcs, jobs: int | None,
               context: SimContext | None) -> list:
    """Shared fan-out: dedup identical DUTs, then run each unique pair.

    The shared testbench text is parsed once (cache) and each unique
    (testbench, DUT) design is elaborated + compiled once (template
    cache), so a batch amortizes every per-design cost across the runs.
    With ``jobs > 1`` unique pairs spread over the *persistent* process
    pool (:func:`get_sim_pool`): workers survive across batch calls, so
    their caches stay warm and repeated small batches skip the pool
    spin-up entirely.

    The resolved :class:`SimContext` travels inside each work item and
    is activated in whichever process runs it — pool workers have their
    own root context, so shipping plain work without the context would
    ignore any activation made in this (the parent) process.
    """
    context = context if context is not None else current_context()
    if jobs is None:
        jobs = context.jobs
    dut_list = list(dut_srcs)
    order: list[str] = []
    seen = set()
    for dut in dut_list:
        if dut not in seen:
            seen.add(dut)
            order.append(dut)

    items = [(shared_src, dut, context) for dut in order]
    if jobs > 1 and len(order) > 1:
        unique_results = [result for _, result in sorted(
            pool_imap(worker, items, jobs), key=itemgetter(0))]
    else:
        unique_results = [worker(item) for item in items]

    by_src = dict(zip(order, unique_results))
    return [by_src[dut] for dut in dut_list]


def run_driver_batch(driver_src: str, dut_srcs, jobs: int | None = None,
                     context: SimContext | None = None) -> list[DriverRun]:
    """Run one hybrid-TB driver against many DUT variants.

    This is the validator/AutoEval hot path: the driver is compiled
    once, identical DUTs are simulated once, and ``jobs > 1`` fans the
    unique runs across a process pool.  ``jobs`` / ``context`` left
    unset resolve through the active :class:`SimContext`.
    """
    return _run_batch(_driver_batch_worker, driver_src, dut_srcs, jobs,
                      context)


def run_monolithic_batch(tb_src: str, dut_srcs, jobs: int | None = None,
                         context: SimContext | None = None,
                         ) -> list[MonolithicRun]:
    """Run one self-checking testbench against many DUT variants."""
    return _run_batch(_monolithic_batch_worker, tb_src, dut_srcs, jobs,
                      context)


# ----------------------------------------------------------------------
# Mutant sweeps (lockstep union engine with per-mutant fallback)
# ----------------------------------------------------------------------
@dataclass
class MutantSweep:
    """Outcome of one driver swept across N same-interface DUT variants.

    ``runs`` aligns with the ``dut_srcs`` argument
    (:class:`DriverRun` for hybrid sweeps, :class:`MonolithicRun` for
    monolithic ones).  ``engine`` reports the strategy that actually
    executed — ``"lockstep"`` or ``"per-mutant"`` — and
    ``fallback_reason`` is non-empty when the sweep fell back from
    lockstep (unsupported driver shape, union build/run failure,
    monolithic stdout verdicts).

    When a ``golden_src`` was supplied, ``golden`` carries its run and
    ``retire_rounds[i]`` is the dump-record index at which variant ``i``
    first diverged from the golden lane (``None`` = never diverged, or
    no comparable records).  Both paths compute it from the same
    per-lane records, so the differential fuzz battery asserts equality.
    """

    runs: list
    golden: DriverRun | None = None
    retire_rounds: list = field(default_factory=list)
    engine: str = "per-mutant"
    fallback_reason: str = ""


def _retire_round(golden_run: DriverRun | None,
                  run) -> int | None:
    """First record index where ``run`` diverges from the golden lane."""
    if golden_run is None or not golden_run.ok:
        return None
    if not getattr(run, "ok", False):
        return None
    records = getattr(run, "records", None)
    if records is None:
        return None
    for index, (golden_record, record) in enumerate(
            zip(golden_run.records, records)):
        if golden_record != record:
            return index
    if len(records) != len(golden_run.records):
        return min(len(records), len(golden_run.records))
    return None


def _per_mutant_sweep(driver_src: str, dut_list: list[str],
                      golden_src: str | None, jobs: int | None,
                      context: SimContext,
                      fallback_reason: str = "") -> MutantSweep:
    """Simulate each variant separately: lockstep's fallback, and the
    reference the lockstep differential tests compare it with."""
    lanes = ([golden_src] if golden_src is not None else []) + dut_list
    runs = run_driver_batch(driver_src, lanes, jobs=jobs, context=context)
    golden_run = runs[0] if golden_src is not None else None
    dut_runs = runs[1:] if golden_src is not None else runs
    return MutantSweep(
        runs=dut_runs, golden=golden_run,
        retire_rounds=[_retire_round(golden_run, run)
                       for run in dut_runs],
        engine="per-mutant", fallback_reason=fallback_reason)


def _lockstep_sweep(driver_src: str, dut_list: list[str],
                    golden_src: str | None,
                    context: SimContext) -> MutantSweep:
    """Run the sweep as one union design.

    Raises :exc:`LockstepUnsupported` (or a front-end/runtime
    :exc:`~repro.hdl.errors.HdlError`) when the union cannot be built or
    run faithfully; the caller falls back to the per-mutant path.
    """
    lanes = ([golden_src] if golden_src is not None else []) + dut_list
    order: list[str] = []
    seen = set()
    for lane in lanes:
        if lane not in seen:
            seen.add(lane)
            order.append(lane)
    n_lanes = len(order)

    key = ("union", driver_src, tuple(order))
    _raise_cached_failure(key)
    try:
        template = _union_templates.get_or_create(
            key, lambda: DesignTemplate(
                elaborate(build_union(driver_src, order), "tb")))
    except (VerilogSyntaxError, ElaborationError,
            LockstepUnsupported) as exc:
        _record_failure(key, exc)
        raise

    with use_context(context):
        # One run carries every lane's statements: scale the statement
        # budget so an N-lane union is budgeted like N single runs.
        result = template.run(max_stmts=context.max_stmts * n_lanes)
    if not result.finished:
        raise LockstepUnsupported("union run ended without $finish")

    lane_records = _demux_records(result.files.get(DUMP_FILE, []), n_lanes)
    runs_by_src: dict[str, DriverRun] = {}
    for lane_src, records in zip(order, lane_records):
        if records:
            runs_by_src[lane_src] = DriverRun(
                OK, records=records, stdout=list(result.stdout))
        else:
            runs_by_src[lane_src] = DriverRun(
                RUNTIME, detail="no check-points in dump",
                stdout=list(result.stdout))

    golden_run = (runs_by_src[golden_src]
                  if golden_src is not None else None)
    dut_runs = [runs_by_src[dut] for dut in dut_list]
    return MutantSweep(
        runs=dut_runs, golden=golden_run,
        retire_rounds=[_retire_round(golden_run, run)
                       for run in dut_runs],
        engine="lockstep")


def run_mutant_sweep(driver_src: str, dut_srcs,
                     golden_src: str | None = None,
                     kind: str = "hybrid",
                     jobs: int | None = None,
                     context: SimContext | None = None) -> MutantSweep:
    """Sweep one shared testbench across many DUT variants of one
    design (AutoEval Eval2 mutant batches, validator R/S matrices).

    The driver and every variant merge into one *lockstep* union design
    executed in a single simulation — the driver's stimulus, clocking
    and scheduler costs are paid once per sweep instead of once per
    variant — and shapes the union cannot express fall back to the
    *per-mutant* path transparently (``MutantSweep.fallback_reason``
    says why).  The per-mutant path simulates each variant separately;
    a differential fuzz battery pins lockstep against it.

    ``kind="monolithic"`` sweeps a self-checking testbench
    (:class:`MonolithicRun` results); its verdicts travel on stdout,
    which a union run shares across lanes, so it always executes
    per-mutant.

    ``golden_src`` adds a golden reference lane: the sweep reports its
    run separately plus each variant's *retire round* — the dump-record
    index of first divergence from the golden lane.

    ``jobs`` / ``context`` left unset resolve through the active
    :class:`SimContext`.
    """
    context = context if context is not None else current_context()
    dut_list = list(dut_srcs)

    if kind == "monolithic":
        lanes = ([golden_src] if golden_src is not None else []) + dut_list
        runs = run_monolithic_batch(driver_src, lanes, jobs=jobs,
                                    context=context)
        golden_run = runs[0] if golden_src is not None else None
        return MutantSweep(
            runs=runs[1:] if golden_src is not None else runs,
            golden=golden_run,
            retire_rounds=[None] * len(dut_list),
            engine="per-mutant",
            fallback_reason="monolithic verdicts travel on stdout")
    if kind != "hybrid":
        raise ValueError(f"unknown sweep kind {kind!r}; "
                         f"expected 'hybrid' or 'monolithic'")

    if not dut_list:
        return _per_mutant_sweep(driver_src, dut_list, golden_src, jobs,
                                 context)
    try:
        return _lockstep_sweep(driver_src, dut_list, golden_src, context)
    except (LockstepUnsupported, HdlError, RecursionError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return _per_mutant_sweep(driver_src, dut_list, golden_src, jobs,
                                 context, fallback_reason=reason)
