"""LLM client protocol, chat data model, and usage metering.

The CorrectBench pipeline talks to a model through the narrow
:class:`LLMClient` protocol.  A request carries two things:

``messages``
    the real prompt text (system + conversation turns) — this is what a
    production client would send over the wire and what usage metering is
    charged against;

``intent``
    a structured description of *what the pipeline is asking for*
    (generate scenarios / driver / checker / RTL sample / correction).
    The offline :class:`~repro.llm.synthetic.SyntheticLLM` dispatches on
    the intent; an API-backed client is free to ignore it.

Keeping the intent out-of-band is the one concession the offline
reproduction makes: it spares the synthetic model from re-parsing its own
prompts while every prompt-construction and response-parsing code path in
the pipeline still runs for real.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

from .tokens import approx_token_count


@dataclass(frozen=True)
class ChatMessage:
    """One turn of a chat conversation."""

    role: str  # "system" | "user" | "assistant"
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid chat role {self.role!r}")


@dataclass(frozen=True)
class Usage:
    """Token usage of one or more requests."""

    input_tokens: int = 0
    output_tokens: int = 0

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(self.input_tokens + other.input_tokens,
                     self.output_tokens + other.output_tokens)

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True)
class GenerationIntent:
    """Structured request descriptor.

    ``kind`` is one of the pipeline stages:

    - ``"scenarios"``     — test-scenario list for a task
    - ``"driver"``        — Verilog driver for a scenario list
    - ``"checker"``       — Python checker core for a task
    - ``"rtl"``           — one imperfect RTL sample (validator judge group)
    - ``"baseline_tb"``   — monolithic self-checking Verilog TB (baseline)
    - ``"syntax_fix"``    — auto-debug repair of a syntax-broken artifact
    - ``"correct_reason"``— corrector stage 1 (why / where / how)
    - ``"correct_rewrite"``— corrector stage 2 (code rewrite)

    ``payload`` carries stage-specific structured context (the task object,
    attempt counters, scenario lists, bug reports).
    """

    kind: str
    task_id: str
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    intent: GenerationIntent

    @property
    def prompt_text(self) -> str:
        return "\n".join(m.content for m in self.messages)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    usage: Usage
    model_name: str = ""


@runtime_checkable
class LLMClient(Protocol):
    """The protocol every model backend implements."""

    @property
    def name(self) -> str:
        """Provider model identifier, e.g. ``gpt-4o-2024-08-06``."""
        ...

    def complete(self, request: ChatRequest) -> ChatResponse:
        """Run one chat completion."""
        ...


class UsageMeter:
    """Accumulates token usage, broken down by intent kind.

    One meter is attached per workflow run so Fig. 6b's per-task token cost
    can be reproduced exactly as the paper reports it (input and output
    tokens per task).

    Thread-safe: live-backend fan-out issues requests for independent
    pipeline stages concurrently, and several
    :class:`MeteredClient`\\ s may share one meter — every update and
    snapshot holds an internal lock (dropped for pickling, rebuilt on
    unpickle, so meters still travel inside work results).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = Usage()
        self._by_kind: dict[str, Usage] = {}
        self.request_count = 0

    def record(self, intent_kind: str, usage: Usage) -> None:
        with self._lock:
            self._total = self._total + usage
            self._by_kind[intent_kind] = (
                self._by_kind.get(intent_kind, Usage()) + usage)
            self.request_count += 1

    @property
    def total(self) -> Usage:
        with self._lock:
            return self._total

    def by_kind(self) -> Mapping[str, Usage]:
        with self._lock:
            return dict(self._by_kind)

    def merge(self, other: "UsageMeter") -> None:
        # Snapshot the source first (its own lock), then fold in under
        # ours — never hold both, so two meters merging into each other
        # cannot deadlock.
        merged = other.by_kind()
        count = other.request_count
        with self._lock:
            for kind, usage in merged.items():
                self._total = self._total + usage
                self._by_kind[kind] = (
                    self._by_kind.get(kind, Usage()) + usage)
            self.request_count += count

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]  # locks do not pickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class MeteredClient:
    """Wraps a client, recording usage of every request into a meter."""

    def __init__(self, inner: LLMClient, meter: UsageMeter):
        self._inner = inner
        self.meter = meter

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def inner(self) -> LLMClient:
        return self._inner

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._inner.complete(request)
        self.meter.record(request.intent.kind, response.usage)
        return response


@lru_cache(maxsize=4096)
def _text_tokens(text: str) -> int:
    # Looks ``approx_token_count`` up at call time, so a rebound module
    # alias (the benchmark's tracer) still sees every miss.
    return approx_token_count(text)


def usage_for(messages: Sequence[ChatMessage], response_text: str) -> Usage:
    """Compute approximate usage for one exchange.

    Token pieces never span whitespace, so the prompt's count (of the
    newline-joined messages) is the sum of the memoized message counts.
    """
    return Usage(input_tokens=sum(_text_tokens(m.content) for m in messages),
                 output_tokens=_text_tokens(response_text))
