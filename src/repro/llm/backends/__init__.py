"""``repro.llm.backends`` — live multi-LLM backend layer.

Wire-attached counterparts to the synthetic tier: pluggable adapters
(Ollama, OpenAI-compatible, Hugging Face router) behind the
:class:`~repro.llm.base.LLMClient` protocol, a typed error taxonomy, a
resilience stack (retry budgets, rate limits, deadline propagation, a
global in-flight cap), a registered response cache, and a
recorded-fixture mode that keeps CI offline while exercising the real
adapter code paths.  See ``docs/extending.md`` ("Adding an LLM
backend") for the recipe.

Everything here is stdlib-only; the synthetic profiles remain the
default deterministic tier (``SimContext.llm_backend == ""``), and this
package is only imported when a backend is actually resolved.
"""

from .base import (LLMBackend, SamplingParams, remaining_deadline,
                   use_deadline)
from .cache import (CachingBackend, DEFAULT_RESPONSE_CACHE_SIZE,
                    response_cache, response_key)
from .errors import (BackendConnectionError, BackendError,
                     BackendRateLimited, BackendRequestError,
                     BackendServerError, BackendTimeout, BudgetExhausted,
                     MalformedResponseError)
from .fanout import fan_out, iter_fan_out
from .fixtures import FixtureBackend, FixtureError, FixtureStore
from .ollama import OllamaBackend
from .openai_compat import HFRouterBackend, OpenAICompatBackend
from .registry import (ADAPTERS, backend_names, create_backend,
                       is_live_backend, live_stack, resolve_llm_client)
from .resilience import (DEFAULT_MAX_IN_FLIGHT, GLOBAL_IN_FLIGHT,
                         InFlightCap, RateLimitBudget, ResilientBackend,
                         RetryPolicy, set_global_in_flight)

__all__ = [
    "ADAPTERS",
    "BackendConnectionError",
    "BackendError",
    "BackendRateLimited",
    "BackendRequestError",
    "BackendServerError",
    "BackendTimeout",
    "BudgetExhausted",
    "CachingBackend",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_RESPONSE_CACHE_SIZE",
    "FixtureBackend",
    "FixtureError",
    "FixtureStore",
    "GLOBAL_IN_FLIGHT",
    "HFRouterBackend",
    "InFlightCap",
    "LLMBackend",
    "MalformedResponseError",
    "OllamaBackend",
    "OpenAICompatBackend",
    "RateLimitBudget",
    "ResilientBackend",
    "RetryPolicy",
    "SamplingParams",
    "backend_names",
    "create_backend",
    "fan_out",
    "is_live_backend",
    "iter_fan_out",
    "live_stack",
    "remaining_deadline",
    "resolve_llm_client",
    "response_cache",
    "response_key",
    "set_global_in_flight",
    "use_deadline",
]
