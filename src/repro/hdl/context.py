"""Explicit, request-scoped simulation configuration.

Every execution knob — simulation limits, the campaign worker count,
the pool start method, trace/store directories and the LLM tier —
lives in one immutable value object instead of process-wide mutable
state, so concurrent workloads with different configurations never
reconfigure each other:

:class:`SimContext`
    a frozen dataclass carrying the simulation limits (``max_time`` /
    ``max_stmts``) and the worker-pool configuration (job count, start
    method, warm-start flag).  Being immutable
    and made of primitives it is hashable, comparable and picklable —
    campaign work items ship the context to pool workers as plain data.

:func:`current_context`
    the single resolution point.  Selection follows a strict order:
    **explicit argument > active context > env-seeded root context**.
    The *active* context is a :mod:`contextvars` variable, so nested
    activations restore correctly and concurrent threads / asyncio
    tasks each see their own configuration.

:func:`use_context`
    a context manager activating a context (or a derived one via
    keyword overrides) for the dynamic extent of a block::

        with use_context(max_stmts=10_000):
            simulate(src, "tb")          # runs capped

:func:`root_context` / :func:`set_root_context`
    the process-wide fallback, seeded once at import from the
    ``REPRO_*`` environment variables (invalid values warn on stderr
    and fall back to the defaults).

There is one simulator engine, one lexer and one mutant-sweep strategy
(lockstep with a per-mutant fallback), so none of them is a knob.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

#: Worker-pool start methods.  ``"default"`` defers to the platform
#: (fork on Linux); the explicit names select a multiprocessing start
#: method, whose availability is checked at pool creation time.
START_METHOD_DEFAULT = "default"
START_METHODS = (START_METHOD_DEFAULT, "fork", "spawn", "forkserver")

#: LLM backend specs (see :mod:`repro.llm.backends.registry`).  The
#: grammar is validated here — where contexts are built — so the llm
#: package never imports back into this module: a plain name, or the
#: compound record-through form ``fixture+<adapter-or-synthetic>``.
LLM_SYNTHETIC = "synthetic"
LLM_ADAPTERS = ("ollama", "openai", "hf")
LLM_FIXTURE = "fixture"
LLM_BACKENDS = (LLM_SYNTHETIC,) + LLM_ADAPTERS + (LLM_FIXTURE,)


def valid_llm_backend(spec: str) -> bool:
    """Is ``spec`` a well-formed ``llm_backend`` value?

    >>> [valid_llm_backend(s) for s in
    ...  ("", "synthetic", "ollama", "fixture+hf", "fixture+fixture")]
    [True, True, True, True, False]
    """
    if spec == "":
        return True
    head, sep, tail = spec.partition("+")
    if not sep:
        return head in LLM_BACKENDS
    return head == LLM_FIXTURE and \
        tail in (LLM_SYNTHETIC,) + LLM_ADAPTERS


DEFAULT_MAX_TIME = 2_000_000
DEFAULT_MAX_STMTS = 4_000_000
DEFAULT_JOBS = 1


@dataclass(frozen=True, slots=True)
class SimContext:
    """One immutable bundle of execution configuration.

    Fields are validated on construction, so an invalid context fails
    at the call site that built it — not deep inside a pool worker.

    >>> SimContext().max_stmts
    4000000
    >>> SimContext(max_stmts=0)
    Traceback (most recent call last):
        ...
    ValueError: max_stmts must be a positive integer, got 0

    Contexts are plain immutable values: hashable, comparable and
    picklable, so batch and campaign APIs ship them to pool workers
    inside each work item.

    >>> SimContext() == SimContext()
    True
    """

    max_time: int = DEFAULT_MAX_TIME
    max_stmts: int = DEFAULT_MAX_STMTS
    jobs: int = DEFAULT_JOBS
    start_method: str = START_METHOD_DEFAULT
    #: Pre-warm the parent's caches before a campaign pool or its shard
    #: workers fork, so forked workers inherit them (see
    #: :func:`repro.core.simulation.get_sim_pool`).
    warm_start: bool = True
    #: Directory correction-session traces are recorded into ("" = trace
    #: recording off).  A plain string so the context stays picklable and
    #: pool workers resolve the same sink their parent configured.
    trace_dir: str = ""
    #: Directory of the persistent campaign artifact store ("" = no
    #: store).  Campaigns write completed results here, and
    #: ``--resume`` / shard workers read them back instead of
    #: resimulating (see :mod:`repro.eval.store`).
    #: A plain string, like ``trace_dir``, so contexts stay picklable.
    store_dir: str = ""
    #: Which model tier answers LLM requests ("" = the synthetic
    #: profiles, the deterministic default).  A spec string — see
    #: :func:`valid_llm_backend` — resolved by
    #: :func:`repro.llm.backends.registry.resolve_llm_client`.
    llm_backend: str = ""
    #: Live model identifier sent to the backend ("" = the campaign's
    #: profile name doubles as the model id).
    llm_model: str = ""
    #: Endpoint base URL override ("" = the adapter's default).
    llm_base_url: str = ""
    #: Directory the fixture modes record to / replay from.
    llm_fixture_dir: str = ""

    def __post_init__(self):
        if self.start_method not in START_METHODS:
            raise ValueError(f"unknown start_method "
                             f"{self.start_method!r}; "
                             f"expected one of {START_METHODS}")
        # bool is an int subclass, but True is not a one-unit limit.
        for name in ("max_time", "max_stmts", "jobs"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, "
                                 f"got {value!r}")
        if not isinstance(self.warm_start, bool):
            raise ValueError(f"warm_start must be a bool, "
                             f"got {self.warm_start!r}")
        if not isinstance(self.trace_dir, str):
            raise ValueError(f"trace_dir must be a string path "
                             f"('' disables tracing), "
                             f"got {self.trace_dir!r}")
        if not isinstance(self.store_dir, str):
            raise ValueError(f"store_dir must be a string path "
                             f"('' disables the campaign store), "
                             f"got {self.store_dir!r}")
        if not isinstance(self.llm_backend, str) or \
                not valid_llm_backend(self.llm_backend):
            raise ValueError(
                f"unknown llm_backend {self.llm_backend!r}; expected "
                f"one of {LLM_BACKENDS}, or fixture+<name> to record "
                f"through a backend ('' = synthetic)")
        for name in ("llm_model", "llm_base_url", "llm_fixture_dir"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, "
                                 f"got {value!r}")

    def evolve(self, **overrides) -> "SimContext":
        """Return a copy with ``overrides`` applied (and re-validated).

        >>> SimContext().evolve(max_stmts=10_000).max_stmts
        10000
        """
        return replace(self, **overrides)


# ----------------------------------------------------------------------
# Environment seeding (the only REPRO_* reads in the code base)
# ----------------------------------------------------------------------
def _warn_env(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _context_from_env(environ=None) -> tuple[SimContext, frozenset]:
    """Build a context from ``REPRO_*`` variables.

    Returns ``(context, seeded)`` where ``seeded`` names the fields an
    environment variable actually set.  Invalid values warn on stderr
    and leave the field at its default — a misspelt knob must degrade a
    run, never kill it.
    """
    if environ is None:
        environ = os.environ
    overrides: dict = {}
    seeded: set[str] = set()

    jobs = environ.get("REPRO_JOBS")
    if jobs:
        try:
            value = int(jobs)
        except ValueError:
            _warn_env(f"REPRO_JOBS={jobs!r} is not an integer; "
                      f"using the default worker count")
        else:
            if value == 0:
                value = os.cpu_count() or 1
            overrides["jobs"] = max(1, value)
            seeded.add("jobs")

    start_method = environ.get("REPRO_START_METHOD")
    if start_method is not None:
        if start_method in START_METHODS:
            overrides["start_method"] = start_method
            seeded.add("start_method")
        else:
            _warn_env(f"REPRO_START_METHOD={start_method!r} is not one "
                      f"of {START_METHODS}; using "
                      f"{START_METHOD_DEFAULT!r}")

    warm = environ.get("REPRO_WARM_START")
    if warm is not None:
        lowered = warm.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            overrides["warm_start"] = True
            seeded.add("warm_start")
        elif lowered in ("0", "false", "no", "off"):
            overrides["warm_start"] = False
            seeded.add("warm_start")
        else:
            _warn_env(f"REPRO_WARM_START={warm!r} is not a boolean "
                      f"(1/0/true/false); using the default")

    trace_dir = environ.get("REPRO_TRACE_DIR")
    if trace_dir is not None:
        overrides["trace_dir"] = trace_dir
        seeded.add("trace_dir")

    store_dir = environ.get("REPRO_STORE_DIR")
    if store_dir is not None:
        overrides["store_dir"] = store_dir
        seeded.add("store_dir")

    llm_backend = environ.get("REPRO_LLM_BACKEND")
    if llm_backend is not None:
        if valid_llm_backend(llm_backend):
            overrides["llm_backend"] = llm_backend
            seeded.add("llm_backend")
        else:
            _warn_env(f"REPRO_LLM_BACKEND={llm_backend!r} is not one of "
                      f"{LLM_BACKENDS} (or fixture+<name>); using the "
                      f"synthetic tier")

    for env_name, field_name in (
            ("REPRO_LLM_MODEL", "llm_model"),
            ("REPRO_LLM_BASE_URL", "llm_base_url"),
            ("REPRO_LLM_FIXTURE_DIR", "llm_fixture_dir")):
        raw = environ.get(env_name)
        if raw is not None:
            overrides[field_name] = raw
            seeded.add(field_name)

    return SimContext(**overrides), frozenset(seeded)


_root, _env_seeded = _context_from_env()

# The active (request-scoped) context.  ``None`` means "fall through to
# the root": threads and asyncio tasks start without an activation, so
# a worker never silently inherits another request's configuration.
_active: ContextVar[SimContext | None] = ContextVar(
    "repro_sim_context", default=None)


def current_context() -> SimContext:
    """Resolve the context in effect: active if any, else the root.

    >>> current_context().max_stmts >= 1
    True
    """
    context = _active.get()
    return context if context is not None else _root


def root_context() -> SimContext:
    """The process-wide fallback context (env-seeded at import)."""
    return _root


def set_root_context(context: SimContext) -> None:
    """Replace the process-wide fallback context.

    Prefer :func:`use_context` for anything request-scoped; this is for
    process setup (CLI entry points, worker initializers).
    """
    global _root
    if not isinstance(context, SimContext):
        raise TypeError(f"expected a SimContext, got {context!r}")
    _root = context


@contextmanager
def use_context(context: SimContext | None = None, **overrides):
    """Activate ``context`` (or the current one evolved with keyword
    overrides) for the duration of the ``with`` block.

    Activations nest: leaving the block restores whatever was active
    before, even under exceptions.

    >>> with use_context(max_stmts=123):
    ...     current_context().max_stmts
    123
    >>> current_context().max_stmts == 123   # restored on exit
    False
    """
    base = context if context is not None else current_context()
    if overrides:
        base = base.evolve(**overrides)
    token = _active.set(base)
    try:
        yield base
    finally:
        _active.reset(token)


# ----------------------------------------------------------------------
# Per-request resolution (the service front end)
# ----------------------------------------------------------------------
#: SimContext fields a *request* may override (service ``X-Repro-*``
#: headers / body ``"context"`` objects).  Deliberately excludes the
#: operator-owned knobs — ``jobs``, ``start_method``, ``warm_start``,
#: ``trace_dir`` — which shape shared process state a single request
#: must not reconfigure.
REQUEST_CONTEXT_FIELDS = ("max_time", "max_stmts")


def context_from_request(overrides, base: SimContext | None = None,
                         ) -> SimContext:
    """Resolve a per-request :class:`SimContext` from untrusted input.

    ``overrides`` is a mapping of field name to value, typically decoded
    from request headers or a JSON body.  Only
    :data:`REQUEST_CONTEXT_FIELDS` are accepted; they are integers and
    coerce from strings (header values arrive as text).  Anything else —
    unknown fields, malformed integers, values
    :class:`SimContext.__post_init__` rejects — raises ``ValueError``
    with a message fit for a ``400`` response body.

    >>> context_from_request({"max_stmts": "50000"}).max_stmts
    50000
    >>> context_from_request({"jobs": 64})
    Traceback (most recent call last):
        ...
    ValueError: unknown context field(s) ['jobs']; requests may set ('max_time', 'max_stmts')
    """
    base = base if base is not None else current_context()
    unknown = sorted(name for name in overrides
                     if name not in REQUEST_CONTEXT_FIELDS)
    if unknown:
        raise ValueError(f"unknown context field(s) {unknown}; "
                         f"requests may set {REQUEST_CONTEXT_FIELDS}")
    clean: dict = {}
    for name, value in dict(overrides).items():
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {value!r}") from None
        clean[name] = value
    if not clean:
        return base
    return base.evolve(**clean)


def resolve_jobs(default: int = 1) -> int:
    """Worker count for campaign sharding.

    An active context always wins; otherwise the root's count applies
    when it was actually configured — seeded from ``REPRO_JOBS`` or
    steered away from the built-in default via
    :func:`set_root_context` — so callers keep control of their own
    default when nobody chose a job count.
    """
    context = _active.get()
    if context is not None:
        return context.jobs
    if "jobs" in _env_seeded or _root.jobs != DEFAULT_JOBS:
        return _root.jobs
    return default
