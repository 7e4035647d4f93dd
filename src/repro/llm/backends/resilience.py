"""Retry, rate-limit, and concurrency discipline for live backends.

A wire-attached model is an unreliable dependency: it times out, sheds
load with 429s, and occasionally answers garbage.  This module wraps an
adapter in the policy that makes campaigns survive that:

:class:`RetryPolicy`
    exponential backoff with deterministic-injectable jitter.  Attempt
    ``n`` waits ``base_delay * multiplier**(n-1)`` (clamped to
    ``max_delay``), spread by ``jitter`` so a fleet of workers does not
    retry in lockstep.

:class:`RateLimitBudget`
    a sliding-window request budget (``limit`` requests per
    ``window_s``).  By default it *throttles* — sleeps until the window
    frees a slot; with ``block=False`` an exhausted window raises
    :class:`~repro.llm.backends.errors.BudgetExhausted` instead, which
    is what batch jobs with a hard cost ceiling want.  Clock and sleep
    are injectable, so tests drive it with a fake clock.

:class:`InFlightCap`
    a semaphore bounding concurrent requests.  :data:`GLOBAL_IN_FLIGHT`
    is the process-wide cap every :class:`ResilientBackend` holds while
    a request is on the wire, so campaign fan-out
    (:func:`repro.llm.backends.fanout.iter_fan_out`) cannot dogpile an
    endpoint no matter how many worker threads it runs.

:class:`ResilientBackend`
    the wrapper composing all three around any
    :class:`~repro.llm.base.LLMClient`.  Retryable
    :class:`~repro.llm.backends.errors.BackendError` classes are
    retried under the policy (a 429's ``Retry-After`` floors the
    backoff delay); non-retryable ones propagate immediately; a spent
    retry budget — or a backoff that would overrun the propagated
    deadline (:func:`~repro.llm.backends.base.use_deadline`) — raises
    :class:`BudgetExhausted` chained to the last underlying failure.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..base import ChatRequest, ChatResponse, LLMClient
from .base import remaining_deadline
from .errors import BackendError, BackendRateLimited, BudgetExhausted


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for retryable failures.

    >>> policy = RetryPolicy(base_delay=1.0, jitter=0.0)
    >>> [policy.delay(n) for n in (1, 2, 3)]
    [1.0, 2.0, 4.0]
    """

    max_attempts: int = 4
    base_delay: float = 0.25
    max_delay: float = 8.0
    multiplier: float = 2.0
    jitter: float = 0.25  # +/- fraction of the computed delay

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class RateLimitBudget:
    """A sliding-window request budget shared by one backend's callers.

    Thread-safe: concurrent fan-out workers draw slots from one budget.
    """

    def __init__(self, limit: int, window_s: float = 60.0, *,
                 block: bool = True, clock=time.monotonic,
                 sleep=time.sleep):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = int(limit)
        self.window_s = float(window_s)
        self.block = block
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._stamps: list[float] = []
        self.waits = 0  # telemetry: how often acquire had to wait

    def _try_acquire(self) -> float:
        """Take a slot now, or return the seconds until one frees."""
        with self._lock:
            now = self._clock()
            horizon = now - self.window_s
            while self._stamps and self._stamps[0] <= horizon:
                self._stamps.pop(0)
            if len(self._stamps) < self.limit:
                self._stamps.append(now)
                return 0.0
            return max(self._stamps[0] + self.window_s - now, 0.0)

    def acquire(self, *, backend: str = "") -> None:
        """Block until a slot is free (or raise, per ``block``)."""
        while True:
            wait = self._try_acquire()
            if wait <= 0.0:
                return
            label = f"{backend}: " if backend else ""
            if not self.block:
                raise BudgetExhausted(
                    f"{label}rate-limit budget spent "
                    f"({self.limit} requests / {self.window_s:.0f}s)",
                    backend=backend)
            remaining = remaining_deadline(clock=self._clock)
            if remaining is not None and wait >= remaining:
                raise BudgetExhausted(
                    f"{label}rate-limit wait of {wait:.1f}s overruns "
                    f"the {remaining:.1f}s deadline", backend=backend)
            self.waits += 1
            self._sleep(wait)


class InFlightCap:
    """A named semaphore bounding concurrent wire requests."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = int(limit)
        self._semaphore = threading.Semaphore(self.limit)

    @contextmanager
    def slot(self):
        self._semaphore.acquire()
        try:
            yield
        finally:
            self._semaphore.release()


#: Default process-wide bound on concurrent live requests; sized for a
#: local inference server — operators raise it via
#: :func:`set_global_in_flight` when pointing at hosted APIs.
DEFAULT_MAX_IN_FLIGHT = 8

GLOBAL_IN_FLIGHT = InFlightCap(DEFAULT_MAX_IN_FLIGHT)


def set_global_in_flight(limit: int) -> InFlightCap:
    """Replace the process-wide cap (process setup, not mid-campaign)."""
    global GLOBAL_IN_FLIGHT
    GLOBAL_IN_FLIGHT = InFlightCap(limit)
    return GLOBAL_IN_FLIGHT


class ResilientBackend:
    """Wrap a backend with retry, rate-limit, and in-flight discipline.

    Conforms to :class:`~repro.llm.base.LLMClient`; ``inner`` exposes
    the wrapped client (mirroring
    :class:`~repro.llm.base.MeteredClient`), so introspection helpers
    can unwrap the stack.
    """

    def __init__(self, inner: LLMClient, *,
                 policy: RetryPolicy | None = None,
                 rate_budget: RateLimitBudget | None = None,
                 in_flight: InFlightCap | None = None,
                 sleep=time.sleep, clock=time.monotonic,
                 rng: random.Random | None = None):
        self._inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.rate_budget = rate_budget
        self._in_flight = in_flight
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self.attempts = 0  # telemetry
        self.retries = 0

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def inner(self) -> LLMClient:
        return self._inner

    def _cap(self) -> InFlightCap:
        return self._in_flight if self._in_flight is not None \
            else GLOBAL_IN_FLIGHT

    def complete(self, request: ChatRequest) -> ChatResponse:
        backend = getattr(self._inner, "backend_id", "") or self.name
        failure: BackendError | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            if self.rate_budget is not None:
                self.rate_budget.acquire(backend=backend)
            self.attempts += 1
            try:
                with self._cap().slot():
                    return self._inner.complete(request)
            except BackendError as exc:
                if not exc.retryable:
                    raise
                failure = exc
            if attempt >= self.policy.max_attempts:
                break
            delay = self.policy.delay(attempt, self._rng)
            if isinstance(failure, BackendRateLimited) and \
                    failure.retry_after:
                delay = max(delay, failure.retry_after)
            remaining = remaining_deadline(clock=self._clock)
            if remaining is not None and delay >= remaining:
                raise BudgetExhausted(
                    f"{backend}: backoff of {delay:.2f}s would overrun "
                    f"the {max(remaining, 0.0):.2f}s deadline "
                    f"(after {attempt} attempts)",
                    backend=backend) from failure
            self.retries += 1
            self._sleep(delay)
        raise BudgetExhausted(
            f"{backend}: retry budget exhausted after "
            f"{self.policy.max_attempts} attempts: {failure}",
            backend=backend) from failure
