"""One facade over the process's caching layers, plus the warm-start
snapshot machinery built on top of it.

The execution stack accumulates caches at every level — token streams
(:mod:`repro.hdl.lexer`), parsed ASTs (:mod:`repro.hdl.parser`), shared
slot programs (:mod:`repro.hdl.compile`), elaboration templates and
cached failures (:mod:`repro.core.simulation`) — each with its own
``clear_*`` / ``*_stats`` pair.  :data:`caches` registers them all
behind a few verbs::

    caches.clear()                  # cold start: drop every layer
    caches.clear("design", "pair")  # drop selected layers
    caches.stats()                  # {name: counters} telemetry
    caches.export_snapshot()        # picklable warm-start artifact
    caches.import_snapshot(snap)    # warm a fresh process from it

The legacy ``clear_simulation_caches`` / ``simulation_cache_stats`` /
``clear_template_caches`` helpers in :mod:`repro.core.simulation`
delegate here, so existing callers and recorded stats shapes are
unchanged.  New caching layers self-register at import time via
:meth:`CacheRegistry.register` instead of growing the helper functions.

**Warm-start snapshots.**  Compiled-closure programs cannot cross a
process boundary (closures do not pickle), but everything *below* the
closure layer can: token streams, ASTs, the ``(source, top)`` signatures
of elaborated templates, and recorded elaboration failures.
:class:`CacheSnapshot` bundles exactly those payloads.  A layer opts in
by registering ``export`` / ``import_`` callables; layers without them
(the program cache) are simply absent from snapshots.  Importing a
snapshot *re-derives* the closure-bearing layers — template signatures
are re-elaborated and re-compiled locally — so a spawn-started pool
worker reaches the same steady state a forked worker inherits for free.

**Task scoping.**  Campaign sweeps interleave many tasks; one task's
mutant flood used to evict another task's warm templates from the shared
LRUs.  :func:`use_task_scope` activates a scope label (campaigns use the
task id) and :class:`ScopedLruCache` gives each scope its own LRU
bucket, so eviction pressure stays within the task that caused it.

**Collector pacing.**  These layers are a long-lived heap of millions
of tracked objects (tuples, cells, closures, AST nodes, tokens).  At
CPython's default thresholds every full (generation-2) collection
rescans all of it, and on a full serial campaign those passes were a
quarter of the wall time.  :func:`pace_full_collections` makes them
rare for the rest of the process.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..util import LruCache as LruCache  # re-export: public cache API

#: Snapshot schema version; bumped when payload shapes change so a
#: stale pickled artifact fails loudly instead of half-importing.
SNAPSHOT_VERSION = 2


@dataclass(frozen=True)
class CacheSnapshot:
    """A picklable bundle of warm cache state (everything below the
    closure layer).

    ``payloads`` maps registered layer names to layer-defined payloads;
    the shapes are owned by each layer's ``export`` / ``import_`` pair
    and are opaque here.  Snapshots travel to pool workers through a
    :class:`~concurrent.futures.ProcessPoolExecutor` initializer (see
    :func:`repro.core.simulation.get_sim_pool`), but they are plain
    values — pickling one to disk and importing it in tomorrow's
    process works just as well.

    >>> snap = CacheSnapshot(payloads={"parse": {"module m; endmodule": 1}})
    >>> snap.layers()
    ('parse',)
    >>> snap.counts()
    {'parse': 1}
    >>> bool(CacheSnapshot(payloads={}))
    False
    """

    payloads: dict = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    def layers(self) -> tuple[str, ...]:
        """Names of the layers this snapshot carries."""
        return tuple(self.payloads)

    def counts(self) -> dict:
        """Entry count per layer (snapshot telemetry)."""
        return {name: len(payload)
                for name, payload in self.payloads.items()}

    def __bool__(self) -> bool:
        """A snapshot is truthy when any layer has entries."""
        return any(self.counts().values())


@dataclass(frozen=True)
class _Layer:
    clear: Callable[[], None]
    stats: Callable[[], dict] | None = None
    export: Callable[[], object] | None = None
    import_: Callable[[object], object] | None = None


class CacheRegistry:
    """Named cache layers with bulk and selective access.

    Each layer registers a ``clear`` callable, and optionally ``stats``
    (counter telemetry), ``export`` (produce a picklable payload for
    :class:`CacheSnapshot`) and ``import_`` (absorb such a payload).

    >>> registry = CacheRegistry()
    >>> store = {}
    >>> registry.register("demo", clear=store.clear,
    ...                   stats=lambda: {"size": len(store)},
    ...                   export=lambda: dict(store),
    ...                   import_=store.update)
    >>> store["k"] = "v"
    >>> snap = registry.export_snapshot()
    >>> registry.clear("demo")
    >>> registry.stats()
    {'demo': {'size': 0}}
    >>> registry.import_snapshot(snap)
    {'demo': 1}
    >>> store
    {'k': 'v'}
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, _Layer] = {}

    def register(self, name: str, clear: Callable[[], None],
                 stats: Callable[[], dict] | None = None,
                 export: Callable[[], object] | None = None,
                 import_: Callable[[object], object] | None = None) -> None:
        """Register a cache layer.  ``clear`` drops it; ``stats`` (if
        any) reports its counters; ``export`` / ``import_`` (if any)
        plug the layer into :class:`CacheSnapshot`.  Names are unique."""
        with self._lock:
            if name in self._entries:
                raise ValueError(f"cache {name!r} is already registered")
            self._entries[name] = _Layer(clear, stats, export, import_)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def _select(self, names: tuple[str, ...]) -> list[str]:
        with self._lock:
            if not names:
                return list(self._entries)
            unknown = [name for name in names if name not in self._entries]
            if unknown:
                raise KeyError(f"unknown cache(s) {unknown!r}; "
                               f"registered: {tuple(self._entries)}")
            return list(names)

    def clear(self, *names: str) -> None:
        """Drop the named caches (all of them when called bare)."""
        for name in self._select(names):
            self._entries[name].clear()

    def stats(self, *names: str) -> dict:
        """Counters for the named caches (all stats-capable ones when
        called bare), keyed by registered name."""
        out = {}
        for name in self._select(names):
            stats_fn = self._entries[name].stats
            if stats_fn is not None:
                out[name] = stats_fn()
        return out

    def export_snapshot(self, *names: str) -> CacheSnapshot:
        """Snapshot the named layers (all export-capable ones when
        called bare) into one picklable :class:`CacheSnapshot`."""
        payloads = {}
        for name in self._select(names):
            export = self._entries[name].export
            if export is not None:
                payloads[name] = export()
        return CacheSnapshot(payloads=payloads)

    def import_snapshot(self, snapshot: CacheSnapshot) -> dict:
        """Absorb ``snapshot`` into this process's caches.

        Returns ``{layer: imported_count}``.  Layers the snapshot
        carries but this process does not know (or that lack an
        ``import_`` hook) are skipped — a snapshot is a warm-up hint,
        never a correctness requirement.  A version mismatch raises:
        silently importing a stale schema could poison every worker.
        """
        if not isinstance(snapshot, CacheSnapshot):
            raise TypeError(f"expected a CacheSnapshot, got {snapshot!r}")
        if snapshot.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {snapshot.version} does not match "
                f"this build's {SNAPSHOT_VERSION}")
        imported = {}
        for name, payload in snapshot.payloads.items():
            with self._lock:
                layer = self._entries.get(name)
            if layer is None or layer.import_ is None:
                continue
            count = layer.import_(payload)
            imported[name] = int(count) if isinstance(count, int) \
                else len(payload)
        return imported


#: The process-wide registry; layers register themselves at import.
caches = CacheRegistry()


#: Generation-2 threshold while campaign items run: a full collection
#: waits for this many generation-1 collections (CPython's default is
#: 10), so it happens about 100x less often.
FULL_COLLECTION_THRESHOLD = 1000


def pace_full_collections() -> None:
    """Make full garbage collections rare in this process.

    Raises only the generation-2 threshold, to
    :data:`FULL_COLLECTION_THRESHOLD`: young collections keep their
    thresholds and still reclaim short-lived cycles, the collector
    stays enabled, and a larger value the caller already set is kept.
    The setting outlives the call; restoring it after each item would
    only trigger a catch-up full pass.
    """
    gen0, gen1, gen2 = gc.get_threshold()
    if gen2 < FULL_COLLECTION_THRESHOLD:
        gc.set_threshold(gen0, gen1, FULL_COLLECTION_THRESHOLD)


# ----------------------------------------------------------------------
# Snapshot files (warm-start artifacts on disk)
# ----------------------------------------------------------------------
#: File magic for persisted snapshots; bumped with the on-disk format.
_SNAPSHOT_MAGIC = b"repro-cachesnap-1\n"


class SnapshotIntegrityError(RuntimeError):
    """A persisted snapshot file failed verification (bad magic,
    truncated payload, or a SHA-256 mismatch).  Raised instead of ever
    importing suspect cache state."""


def write_snapshot_file(snapshot: CacheSnapshot, path) -> int:
    """Persist ``snapshot`` to ``path``; returns the bytes written.

    The file carries a magic line, the SHA-256 of the pickled payload,
    and the payload itself, and is written via tmp file + atomic
    rename — a crash mid-write leaves the previous snapshot (or no
    file), never a torn one.  :func:`read_snapshot_file` verifies the
    digest before unpickling.
    """
    if not isinstance(snapshot, CacheSnapshot):
        raise TypeError(f"expected a CacheSnapshot, got {snapshot!r}")
    path = Path(path)
    payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    data = _SNAPSHOT_MAGIC + digest + b"\n" + payload
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(data)


def read_snapshot_file(path) -> CacheSnapshot:
    """Load and verify a snapshot persisted by
    :func:`write_snapshot_file`.

    Raises :class:`FileNotFoundError` when ``path`` does not exist and
    :class:`SnapshotIntegrityError` when the file fails verification —
    a warm-start artifact is a hint, but a *corrupt* one must fail
    loudly rather than silently poison every cache layer.
    """
    data = Path(path).read_bytes()
    if not data.startswith(_SNAPSHOT_MAGIC):
        raise SnapshotIntegrityError(
            f"{path} is not a snapshot file (bad magic)")
    rest = data[len(_SNAPSHOT_MAGIC):]
    digest, sep, payload = rest.partition(b"\n")
    if not sep:
        raise SnapshotIntegrityError(f"{path} is truncated")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise SnapshotIntegrityError(
            f"{path} failed its SHA-256 check (tampered or truncated)")
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotIntegrityError(
            f"{path} payload does not unpickle: {exc}") from exc
    if not isinstance(snapshot, CacheSnapshot):
        raise SnapshotIntegrityError(
            f"{path} does not contain a CacheSnapshot "
            f"(got {type(snapshot).__name__})")
    return snapshot


# ----------------------------------------------------------------------
# Task scoping
# ----------------------------------------------------------------------
_task_scope: ContextVar[str | None] = ContextVar("repro_task_scope",
                                                 default=None)


def current_task_scope() -> str | None:
    """The active cache scope label (``None`` = the shared scope)."""
    return _task_scope.get()


@contextmanager
def use_task_scope(scope: str | None):
    """Activate a cache scope for the dynamic extent of a block.

    Campaign items run under their task id, so each task's template
    working set lives (and is evicted) in its own LRU bucket.  Nests
    and restores like :func:`repro.hdl.context.use_context`.

    >>> with use_task_scope("cmb_and2"):
    ...     current_task_scope()
    'cmb_and2'
    >>> current_task_scope() is None
    True
    """
    token = _task_scope.set(scope)
    try:
        yield scope
    finally:
        _task_scope.reset(token)


def tenant_scope(tenant: str | None,
                 label: str | None = None) -> str | None:
    """Cache-scope name for one tenant (the service front end).

    Tenants get their own template-cache buckets, so one tenant's
    mutant flood evicts its *own* warm templates, never a neighbour's —
    the same isolation campaigns get per task, applied per caller.
    ``label`` subdivides a tenant (the service uses the task id for
    generation jobs).  An empty / ``None`` tenant falls through to the
    plain label (or the shared scope), so anonymous requests behave
    like pre-service callers.

    >>> tenant_scope("acme")
    'tenant/acme'
    >>> tenant_scope("acme", "cmb_and2")
    'tenant/acme/cmb_and2'
    >>> tenant_scope("", "cmb_and2")
    'cmb_and2'
    >>> tenant_scope(None) is None
    True
    """
    if not tenant:
        return label
    if label:
        return f"tenant/{tenant}/{label}"
    return f"tenant/{tenant}"


#: Default outer bound on live scope buckets.  Sized above the 156-task
#: benchmark population so a full-dataset campaign prewarm keeps every
#: task's bucket; the cap only exists so a pathological scope churn
#: (e.g. synthetic task ids in a fuzz loop) cannot grow without bound.
DEFAULT_MAX_SCOPES = 256


class ScopedLruCache:
    """Per-scope :class:`~repro.util.LruCache` buckets.

    Each scope label owns a real ``LruCache`` (one implementation of
    the locking/eviction/race-retention policy, not a re-derivation),
    so a hit refreshes the key within its bucket, an insertion evicts
    that bucket's least recently used entry at capacity, and other
    scopes' entries are never touched.  The buckets themselves form an
    outer LRU capped at ``max_scopes``.

    ``capacity`` may be a callable so the bucket size can follow a live
    knob (``SimContext.template_cache_size``); it is read at insertion
    time, and a shrunk capacity trims a bucket on its next insertion.
    The knob is *per scope*, so the worst-case entry count is
    ``capacity * max_scopes``; ``total_budget`` bounds that product with
    a *global* entry budget (``SimContext.template_cache_budget`` for
    the template caches).  When the total live-entry count crosses the
    budget, whole least-recently-used scope *buckets* are shed — never
    the scope that just inserted — so the cost lands on tasks that have
    gone cold, and a revisited task pays a re-elaboration, not a
    crash.  ``None`` disables the budget.
    """

    def __init__(self, capacity: int | Callable[[], int],
                 max_scopes: int = DEFAULT_MAX_SCOPES,
                 total_budget: int | Callable[[], int] | None = None):
        self._capacity = capacity
        self._max_scopes = max(1, int(max_scopes))
        self._total_budget = total_budget
        self._lock = threading.Lock()
        self._scopes: "OrderedDict[str | None, LruCache]" = OrderedDict()
        # Counters of buckets evicted by scope churn, so stats() stays
        # monotonic even after a scope (and its counts) retires.
        self._retired_hits = 0
        self._retired_misses = 0
        self._shed_scopes = 0

    def _bucket(self, scope) -> LruCache:
        with self._lock:
            bucket = self._scopes.get(scope)
            if bucket is None:
                while len(self._scopes) >= self._max_scopes:
                    _, retired = self._scopes.popitem(last=False)
                    self._retire(retired)
                bucket = self._scopes[scope] = LruCache(self._capacity)
            else:
                self._scopes.move_to_end(scope)
            return bucket

    def _budget(self) -> int | None:
        budget = self._total_budget
        if budget is None:
            return None
        value = budget() if callable(budget) else budget
        return max(1, int(value))

    def _retire(self, bucket: LruCache) -> None:
        stats = bucket.stats()
        self._retired_hits += stats["hits"]
        self._retired_misses += stats["misses"]

    def _enforce_budget(self, scope) -> None:
        budget = self._budget()
        if budget is None:
            return
        with self._lock:
            while len(self._scopes) > 1 and sum(
                    len(bucket)
                    for bucket in self._scopes.values()) > budget:
                retired_scope, retired = next(iter(self._scopes.items()))
                if retired_scope == scope:
                    # The inserting scope is the outer-LRU head only
                    # when every other bucket was already shed; keep it
                    # and let its per-scope capacity bound it.
                    break
                del self._scopes[retired_scope]
                self._retire(retired)
                self._shed_scopes += 1

    def get_or_create(self, key, factory: Callable[[], object]):
        """Return the cached value for ``key`` in the *active* scope,
        computing it (outside the locks) on a miss; racing computations
        keep the first inserted object (see
        :meth:`repro.util.LruCache.get_or_create`)."""
        scope = _task_scope.get()
        value = self._bucket(scope).get_or_create(key, factory)
        self._enforce_budget(scope)
        return value

    def clear(self) -> None:
        """Drop every scope's entries and zero the counters (mirrors
        :meth:`repro.util.LruCache.clear`)."""
        with self._lock:
            self._scopes.clear()
            self._retired_hits = 0
            self._retired_misses = 0
            self._shed_scopes = 0

    def stats(self) -> dict:
        with self._lock:
            per_bucket = [bucket.stats()
                          for bucket in self._scopes.values()]
            return {
                "hits": self._retired_hits
                        + sum(s["hits"] for s in per_bucket),
                "misses": self._retired_misses
                          + sum(s["misses"] for s in per_bucket),
                "size": sum(s["size"] for s in per_bucket),
                "scopes": len(self._scopes),
                "shed_scopes": self._shed_scopes,
            }

    def export_keys(self) -> tuple:
        """``(scope, key)`` pairs for every live entry, least recently
        used first.  Values (elaborated templates) hold compiled
        closures and deliberately never cross a process boundary — the
        importer re-derives them from the keys."""
        with self._lock:
            return tuple((scope, key)
                         for scope, bucket in self._scopes.items()
                         for key in bucket.export())
