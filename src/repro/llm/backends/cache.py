"""Response cache for live backends, layered into the cache registry.

Live completions are the most expensive artifact this codebase
produces; identical requests (same backend, model, prompt, and sampling
parameters) are answered from memory.  The layer registers as
``llm_responses`` in :data:`repro.core.caches.caches`, so the standard
verbs apply: ``caches.clear("llm_responses")``, ``caches.stats()``.

A cache hit replays the recorded response *including its usage*,
mirroring :class:`~repro.llm.replay.ReplayClient`: metering reports
what the session would have cost, while the wire sees no request (and
the rate budget is not charged — the caching wrapper sits outside the
resilience wrapper in the stack
:func:`~repro.llm.backends.registry.resolve_llm_client` builds).

Deterministic sampling (``temperature=0``) makes caching semantically
safe; at nonzero temperatures a hit collapses would-be-different
samples, which is the standard trade every response cache makes — the
key includes the sampling fingerprint so distinct settings never alias.
"""

from __future__ import annotations

from ...core.caches import caches
from ...util import LruCache
from ..base import ChatRequest, ChatResponse, LLMClient
from ..replay import prompt_sha

#: Bounded well above one campaign's exchange count (156 tasks x a few
#: dozen exchanges) so eviction only bites truly long-lived processes.
DEFAULT_RESPONSE_CACHE_SIZE = 8192


def response_key(backend_id: str, model: str, prompt: str,
                 params_fingerprint: str) -> tuple:
    """The cache key: backend id + model + prompt SHA-256 + sampling
    parameters."""
    return (backend_id, model, prompt_sha(prompt), params_fingerprint)


#: The process-wide response store (one per process, like every other
#: registered layer; the *key* carries backend identity).
_responses = LruCache(capacity=DEFAULT_RESPONSE_CACHE_SIZE)

caches.register(
    "llm_responses",
    clear=_responses.clear,
    stats=_responses.stats)


def response_cache() -> LruCache:
    """The registered ``llm_responses`` store."""
    return _responses


class CachingBackend:
    """Answer repeated requests from the ``llm_responses`` layer.

    Wraps any :class:`~repro.llm.base.LLMClient`; ``backend_id`` and
    ``params_fingerprint`` default from the wrapped adapter when it
    exposes them (a :class:`~repro.llm.backends.resilience.
    ResilientBackend` forwards to its adapter via ``inner``).
    """

    def __init__(self, inner: LLMClient, *, backend_id: str = "",
                 params_fingerprint: str = "",
                 cache: LruCache | None = None):
        self._inner = inner
        adapter = getattr(inner, "inner", inner)
        self.backend_id = backend_id or \
            getattr(adapter, "backend_id", "") or inner.name
        self.params_fingerprint = params_fingerprint or (
            adapter.params.fingerprint()
            if hasattr(adapter, "params") else "")
        self._cache = cache if cache is not None else _responses
        self.hits = 0  # telemetry (per wrapper; the store counts too)
        self.misses = 0

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def inner(self) -> LLMClient:
        return self._inner

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = response_key(self.backend_id, self._inner.name,
                           request.prompt_text, self.params_fingerprint)
        # Probe-then-insert (not get_or_create): a miss performs a
        # fallible wire call, and a raised BackendError must leave the
        # cache unchanged.
        response = self._cache.get(key)
        if response is not None:
            self.hits += 1
            return response
        self.misses += 1
        response = self._inner.complete(request)
        return self._cache.insert(key, response)
