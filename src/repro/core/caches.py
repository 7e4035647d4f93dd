"""One facade over the process's caching layers.

The execution stack accumulates caches at every level — token streams
(:mod:`repro.hdl.lexer`), parsed ASTs (:mod:`repro.hdl.parser`), shared
slot programs (:mod:`repro.hdl.compile`), elaboration templates and
cached failures (:mod:`repro.core.simulation`) — each with its own
``clear_*`` / ``*_stats`` pair.  :data:`caches` registers them all
behind a few verbs::

    caches.clear()                  # cold start: drop every layer
    caches.clear("design", "pair")  # drop selected layers
    caches.stats()                  # {name: counters} telemetry

The legacy ``clear_simulation_caches`` / ``simulation_cache_stats`` /
``clear_template_caches`` helpers in :mod:`repro.core.simulation`
delegate here, so existing callers and recorded stats shapes are
unchanged.  New caching layers self-register at import time via
:meth:`CacheRegistry.register` instead of growing the helper functions.

Caches warm up in one of two ways: the work builds them lazily, or a
forked pool / shard worker inherits a pre-warmed parent's caches
through copy-on-write memory.  Nothing is serialized.

**Collector pacing.**  These layers are a long-lived heap of millions
of tracked objects (tuples, cells, closures, AST nodes, tokens).  At
CPython's default thresholds every full (generation-2) collection
rescans all of it, and on a full serial campaign those passes were a
quarter of the wall time.  :func:`pace_full_collections` makes them
rare for the rest of the process.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass
from typing import Callable

from ..util import LruCache as LruCache  # re-export: public cache API


@dataclass(frozen=True)
class _Layer:
    clear: Callable[[], None]
    stats: Callable[[], dict] | None = None


class CacheRegistry:
    """Named cache layers with bulk and selective access.

    Each layer registers a ``clear`` callable and, optionally, a
    ``stats`` callable (counter telemetry).

    >>> registry = CacheRegistry()
    >>> store = {"k": "v"}
    >>> registry.register("demo", clear=store.clear,
    ...                   stats=lambda: {"size": len(store)})
    >>> registry.stats()
    {'demo': {'size': 1}}
    >>> registry.clear("demo")
    >>> registry.stats()
    {'demo': {'size': 0}}
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, _Layer] = {}

    def register(self, name: str, clear: Callable[[], None],
                 stats: Callable[[], dict] | None = None) -> None:
        """Register a cache layer.  ``clear`` drops it; ``stats`` (if
        any) reports its counters.  Names are unique."""
        with self._lock:
            if name in self._entries:
                raise ValueError(f"cache {name!r} is already registered")
            self._entries[name] = _Layer(clear, stats)

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
