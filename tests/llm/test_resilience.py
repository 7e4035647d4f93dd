"""Retry/backoff policy, rate-limit budgets, deadline propagation, the
in-flight cap, and the thread fan-out helpers — all clock-injected."""

import random
import threading
import time

import pytest

from repro.llm import ChatMessage, ChatRequest, ChatResponse, \
    GenerationIntent, Usage
from repro.llm.backends import (BackendRateLimited, BackendRequestError,
                                BackendServerError, BackendTimeout,
                                BudgetExhausted, InFlightCap,
                                RateLimitBudget, ResilientBackend,
                                RetryPolicy, iter_fan_out,
                                remaining_deadline, set_global_in_flight,
                                use_deadline)


def _request():
    return ChatRequest(messages=(ChatMessage("user", "q"),),
                       intent=GenerationIntent("driver", "t", {}))


_OK = ChatResponse("fine", Usage(1, 1), "m")


class _Scripted:
    """Inner client raising/returning a scripted outcome per call."""

    name = "scripted-model"
    backend_id = "scripted"

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class _Clock:
    """A manual clock whose sleep() advances it (no real waiting)."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def _resilient(inner, clock=None, **kwargs):
    clock = clock if clock is not None else _Clock()
    kwargs.setdefault("policy", RetryPolicy(base_delay=1.0, jitter=0.0))
    return ResilientBackend(inner, sleep=clock.sleep, clock=clock,
                            **kwargs), clock


class TestRetryPolicy:
    def test_schedule_doubles_and_clamps(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=5.0, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == \
            [1.0, 2.0, 4.0, 5.0]

    def test_jitter_spreads_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.25)
        rng = random.Random(7)
        delays = [policy.delay(1, rng) for _ in range(50)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert len(set(delays)) > 1  # actually spread

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestResilientBackend:
    def test_success_passes_straight_through(self):
        backend, clock = _resilient(_Scripted([_OK]))
        assert backend.complete(_request()) is _OK
        assert backend.attempts == 1
        assert backend.retries == 0
        assert clock.sleeps == []
        assert backend.name == "scripted-model"

    def test_retryable_failures_backed_off_then_succeed(self):
        inner = _Scripted([BackendServerError("boom", backend="scripted"),
                           BackendTimeout("slow", backend="scripted"),
                           _OK])
        backend, clock = _resilient(inner)
        assert backend.complete(_request()).text == "fine"
        assert inner.calls == 3
        assert backend.retries == 2
        assert clock.sleeps == [1.0, 2.0]  # exponential schedule

    def test_non_retryable_raises_immediately(self):
        inner = _Scripted([BackendRequestError("no", backend="scripted"),
                           _OK])
        backend, clock = _resilient(inner)
        with pytest.raises(BackendRequestError):
            backend.complete(_request())
        assert inner.calls == 1
        assert clock.sleeps == []

    def test_retry_after_floors_the_backoff(self):
        inner = _Scripted([
            BackendRateLimited("429", backend="scripted",
                               retry_after=7.5),
            _OK])
        backend, clock = _resilient(inner)
        backend.complete(_request())
        assert clock.sleeps == [7.5]  # floored above base_delay

    def test_spent_budget_raises_typed_error_chained_to_cause(self):
        failures = [BackendServerError(f"boom {n}", backend="scripted")
                    for n in range(3)]
        backend, clock = _resilient(
            _Scripted(failures),
            policy=RetryPolicy(max_attempts=3, base_delay=1.0,
                               jitter=0.0))
        with pytest.raises(BudgetExhausted,
                           match="retry budget exhausted") as excinfo:
            backend.complete(_request())
        assert excinfo.value.__cause__ is failures[-1]
        assert not excinfo.value.retryable
        assert len(clock.sleeps) == 2  # no sleep after the last attempt

    def test_backoff_overrunning_deadline_raises_without_sleeping(self):
        inner = _Scripted([BackendServerError("boom", backend="scripted"),
                           _OK])
        backend, clock = _resilient(
            inner, policy=RetryPolicy(base_delay=10.0, jitter=0.0))
        with use_deadline(2.0, clock=clock):
            with pytest.raises(BudgetExhausted, match="deadline"):
                backend.complete(_request())
        assert clock.sleeps == []
        assert inner.calls == 1


class TestRateLimitBudget:
    def test_nonblocking_budget_exhaustion_is_typed(self):
        clock = _Clock()
        budget = RateLimitBudget(2, window_s=60.0, block=False,
                                 clock=clock, sleep=clock.sleep)
        budget.acquire()
        budget.acquire()
        with pytest.raises(BudgetExhausted, match="rate-limit") as exc:
            budget.acquire(backend="ollama")
        assert exc.value.backend == "ollama"

    def test_blocking_budget_sleeps_until_the_window_frees(self):
        clock = _Clock()
        budget = RateLimitBudget(1, window_s=30.0, clock=clock,
                                 sleep=clock.sleep)
        budget.acquire()
        budget.acquire()  # throttled, then proceeds
        assert budget.waits == 1
        assert clock.sleeps == [30.0]

    def test_window_slides(self):
        clock = _Clock()
        budget = RateLimitBudget(1, window_s=10.0, block=False,
                                 clock=clock, sleep=clock.sleep)
        budget.acquire()
        clock.now += 10.1
        budget.acquire()  # the old stamp expired; no error

    def test_wait_overrunning_deadline_is_budget_exhausted(self):
        clock = _Clock()
        budget = RateLimitBudget(1, window_s=60.0, clock=clock,
                                 sleep=clock.sleep)
        budget.acquire()
        with use_deadline(5.0, clock=clock):
            with pytest.raises(BudgetExhausted, match="deadline"):
                budget.acquire(backend="hf")
        assert clock.sleeps == []

    def test_resilient_backend_charges_the_budget_per_attempt(self):
        clock = _Clock()
        budget = RateLimitBudget(2, window_s=60.0, block=False,
                                 clock=clock, sleep=clock.sleep)
        inner = _Scripted([BackendServerError("boom", backend="scripted"),
                           _OK, _OK])
        backend, _ = _resilient(inner, clock=clock, rate_budget=budget)
        backend.complete(_request())  # two attempts = two slots
        with pytest.raises(BudgetExhausted, match="rate-limit"):
            backend.complete(_request())

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            RateLimitBudget(0)


class TestDeadlines:
    def test_unbounded_by_default(self):
        assert remaining_deadline() is None

    def test_nested_activations_keep_the_tighter_bound(self):
        clock = _Clock()
        with use_deadline(100.0, clock=clock):
            with use_deadline(5.0, clock=clock):
                assert remaining_deadline(clock=clock) == \
                    pytest.approx(5.0)
            with use_deadline(500.0, clock=clock):  # cannot extend
                assert remaining_deadline(clock=clock) == \
                    pytest.approx(100.0)
        assert remaining_deadline(clock=clock) is None

    def test_threads_do_not_inherit_the_deadline(self):
        seen = []
        with use_deadline(5.0):
            thread = threading.Thread(
                target=lambda: seen.append(remaining_deadline()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestInFlightCap:
    def test_bounds_concurrency(self):
        cap = InFlightCap(2)
        lock = threading.Lock()
        active = 0
        peak = 0

        def work(index):
            nonlocal active, peak
            with cap.slot():
                with lock:
                    active += 1
                    peak = max(peak, active)
                time.sleep(0.02)
                with lock:
                    active -= 1
            return index

        assert sorted(iter_fan_out(work, range(8), max_workers=8)) == [
            (i, i) for i in range(8)]
        assert peak <= 2

    def test_set_global_in_flight_swaps_the_shared_cap(self):
        from repro.llm.backends import resilience
        original = resilience.GLOBAL_IN_FLIGHT
        try:
            replaced = set_global_in_flight(2)
            assert resilience.GLOBAL_IN_FLIGHT is replaced
            assert replaced.limit == 2
        finally:
            resilience.GLOBAL_IN_FLIGHT = original

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            InFlightCap(0)


class TestFanOut:
    def test_preserves_input_order(self):
        # Each result comes with its item's index, whatever order the
        # items finish in.
        def flip(index):
            time.sleep(0.01 * (4 - index % 5))
            return index * 10

        assert sorted(iter_fan_out(flip, range(10), max_workers=5)) == [
            (i, i * 10) for i in range(10)]

    def test_single_worker_runs_serially(self):
        threads = set()

        def who(index):
            threads.add(threading.current_thread().name)
            return index

        assert list(iter_fan_out(who, range(4), max_workers=1)) == [
            (i, i) for i in range(4)]
        assert len(threads) == 1

    def test_exception_propagates_by_default(self):
        def boom(index):
            if index == 2:
                raise RuntimeError("task 2 failed")
            return index

        with pytest.raises(RuntimeError, match="task 2"):
            list(iter_fan_out(boom, range(4), max_workers=2))

    def test_iter_fan_out_yields_as_items_complete(self):
        # Item 0 runs until item 1 has been yielded.
        released = threading.Event()

        def work(index):
            if index == 0:
                assert released.wait(10)
            return index + 1

        yielded = []
        for pair in iter_fan_out(work, range(2), max_workers=2):
            yielded.append(pair)
            released.set()
        assert yielded == [(1, 2), (0, 1)]
