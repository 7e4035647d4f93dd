"""The live-backend ABC, sampling parameters, and deadline propagation.

:class:`LLMBackend` is the abstract base every wire-attached adapter
(:mod:`~repro.llm.backends.ollama`,
:mod:`~repro.llm.backends.openai_compat`, which also holds the Hugging
Face router preset) extends.  It conforms to the
pipeline's :class:`~repro.llm.base.LLMClient` protocol —
``complete(ChatRequest) -> ChatResponse`` with real
:class:`~repro.llm.base.Usage` accounting — so a live adapter drops
into every call site the synthetic model serves today (workflows,
campaigns, the service) without the pipeline knowing the difference.

**Deadlines.**  A campaign item or service request owns one wall-clock
budget that must bound *everything* underneath it — every retry of
every exchange.  :func:`use_deadline` activates that budget as a
contextvar for the dynamic extent of a block; the HTTP transport and
the resilience wrapper read :func:`remaining_deadline` to clamp
per-attempt socket timeouts and to refuse backoff sleeps that would
overrun it.  Like :func:`repro.hdl.context.use_context`, activations
nest and restore, and each thread sees its own.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from ..base import ChatRequest, ChatResponse


@dataclass(frozen=True)
class SamplingParams:
    """Decoding knobs sent with every live request.

    Part of the response-cache key (see
    :mod:`repro.llm.backends.cache`): two requests with the same prompt
    but different temperatures are different requests.

    >>> SamplingParams().fingerprint()
    't=0.0,p=1.0,n=2048'
    """

    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 2048

    def fingerprint(self) -> str:
        """A stable string form for cache keys."""
        return (f"t={self.temperature},p={self.top_p},"
                f"n={self.max_tokens}")


class LLMBackend(ABC):
    """Abstract base for wire-attached model adapters.

    Subclasses implement :meth:`complete` by speaking their endpoint's
    protocol through :func:`repro.llm.backends.http.post_json` and
    mapping the reply into a :class:`~repro.llm.base.ChatResponse`.
    Failures raise the typed hierarchy in
    :mod:`repro.llm.backends.errors` — never bare ``URLError``.

    ``backend_id`` identifies the *adapter kind* (``"ollama"``,
    ``"openai"``, ``"hf"``) and keys the response cache together with
    the model name; ``name`` (the :class:`~repro.llm.base.LLMClient`
    protocol surface) is the model identifier requests are sent for.
    """

    #: Adapter kind; subclasses override.
    backend_id = "abstract"

    def __init__(self, model: str, *, base_url: str = "",
                 api_key: str = "", timeout: float = 120.0,
                 params: SamplingParams | None = None):
        if not model:
            raise ValueError(f"{type(self).__name__} needs a model name")
        self.model = model
        self.base_url = (base_url or self.default_base_url()).rstrip("/")
        self.api_key = api_key
        self.timeout = float(timeout)
        self.params = params if params is not None else SamplingParams()

    @classmethod
    def default_base_url(cls) -> str:
        """The endpoint used when none is configured."""
        return ""

    @property
    def name(self) -> str:
        return self.model

    @abstractmethod
    def complete(self, request: ChatRequest) -> ChatResponse:
        """Run one chat completion against the live endpoint."""

    @staticmethod
    def wire_messages(request: ChatRequest) -> list[dict]:
        """The request's messages in the ubiquitous chat-JSON shape."""
        return [{"role": m.role, "content": m.content}
                for m in request.messages]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(model={self.model!r}, "
                f"base_url={self.base_url!r})")


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------
_deadline: ContextVar[float | None] = ContextVar(
    "repro_llm_deadline", default=None)


@contextmanager
def use_deadline(seconds: float, *, clock=time.monotonic):
    """Bound every backend call in the block to ``seconds`` from now.

    Nested activations keep the *tighter* bound, so an inner stage can
    shrink its slice of the budget but never extend it.
    """
    target = clock() + float(seconds)
    current = _deadline.get()
    if current is not None:
        target = min(target, current)
    token = _deadline.set(target)
    try:
        yield
    finally:
        _deadline.reset(token)


def remaining_deadline(*, clock=time.monotonic) -> float | None:
    """Seconds left on the active deadline, or ``None`` (unbounded).
    May be zero or negative once the budget is overrun."""
    target = _deadline.get()
    if target is None:
        return None
    return target - clock()
