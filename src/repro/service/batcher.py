"""Cross-request micro-batching of compatible jobs.

The batch simulation APIs (:func:`repro.core.simulation.run_driver_batch`
and friends) amortize per-driver costs — parse, elaboration, compiled
programs, process-pool fan-out — across many DUT variants.  A server
handling independent requests one at a time forfeits all of that: two
concurrent requests simulating different mutants of the same design
against the same driver would each pay a full serial run.

:class:`MicroBatcher` recovers the batch shape across requests.  Jobs
are submitted with a *compatibility key* (for simulate jobs: the driver
source, the sweep kind and the resolved ``SimContext`` — everything
that must be identical for the jobs to share one ``run_driver_batch``
call).  The first job of a key opens a *window*:
a timer of ``window_s`` seconds during which later compatible jobs pile
into the same batch.  The window flushes early when ``max_batch`` jobs
have coalesced, or immediately when ``window_s`` is zero.  Flushing
hands the whole batch to a runner on an executor thread and fans the
per-job results (or the batch's exception) back to each submitter's
future.

The batcher is deliberately generic — it knows nothing about HTTP or
simulation; the service wires in a runner that activates the context
and calls the batch API.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class BatchStats:
    """Telemetry counters for one batcher (monotonic since boot)."""

    batches: int = 0          # runner invocations
    jobs: int = 0             # jobs submitted
    window_flushes: int = 0   # batches flushed by the window timer
    full_flushes: int = 0     # batches flushed by reaching max_batch
    max_batch: int = 0        # largest batch flushed so far
    # Histogram of flushed batch sizes: {size: count}.  Small by
    # construction (sizes are bounded by the batch_max knob).
    sizes: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {"batches": self.batches, "jobs": self.jobs,
                "window_flushes": self.window_flushes,
                "full_flushes": self.full_flushes,
                "max_batch": self.max_batch,
                "sizes": {str(size): count
                          for size, count in sorted(self.sizes.items())}}


class _Window:
    __slots__ = ("jobs", "futures", "timer")

    def __init__(self):
        self.jobs: list = []
        self.futures: list[asyncio.Future] = []
        self.timer: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Coalesce same-key jobs submitted within a window into one batch.

    ``runner(key, jobs)`` executes on ``executor`` and must return one
    result per job, in order.  A runner exception fails every job in
    the batch with that exception.

    Must be used from a single event loop (the service's); submitters
    are coroutines on that loop.
    """

    def __init__(self, runner: Callable, executor, *,
                 window_s: float = 0.002, max_batch: int = 16):
        self._runner = runner
        self._executor = executor
        self._window_s = max(0.0, float(window_s))
        self._max_batch = max(1, int(max_batch))
        self._windows: dict = {}
        self._in_flight: set[asyncio.Task] = set()
        self.stats = BatchStats()

    async def submit(self, key, job):
        """Queue ``job`` under ``key``; await its individual result."""
        loop = asyncio.get_running_loop()
        self.stats.jobs += 1
        future: asyncio.Future = loop.create_future()
        if self._max_batch == 1 or self._window_s == 0.0:
            # Coalescing disabled (or zero window): dispatch without
            # waiting, but still through the runner so every job takes
            # the same execution path.
            window = _Window()
            window.jobs.append(job)
            window.futures.append(future)
            self._dispatch(key, window, cause="window")
            return await future

        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = _Window()
            window.timer = loop.call_later(
                self._window_s, self._flush, key, "window")
        window.jobs.append(job)
        window.futures.append(future)
        if len(window.jobs) >= self._max_batch:
            self._flush(key, "full")
        return await future

    def _flush(self, key, cause: str) -> None:
        window = self._windows.pop(key, None)
        if window is None:
            return
        if window.timer is not None:
            window.timer.cancel()
        self._dispatch(key, window, cause)

    def flush_all(self) -> None:
        """Flush every open window immediately (drain path)."""
        for key in list(self._windows):
            self._flush(key, "window")

    @property
    def pending(self) -> int:
        """Jobs parked in open windows (not yet dispatched)."""
        return sum(len(window.jobs) for window in self._windows.values())

    @property
    def in_flight(self) -> int:
        """Dispatched batches whose runner has not finished yet."""
        return len(self._in_flight)

    async def join(self) -> None:
        """Wait for every dispatched batch to finish (drain path)."""
        while self._in_flight:
            await asyncio.wait(set(self._in_flight))

    def _dispatch(self, key, window: _Window, cause: str) -> None:
        size = len(window.jobs)
        self.stats.batches += 1
        self.stats.max_batch = max(self.stats.max_batch, size)
        self.stats.sizes[size] = self.stats.sizes.get(size, 0) + 1
        if cause == "full":
            self.stats.full_flushes += 1
        else:
            self.stats.window_flushes += 1
        task = asyncio.get_running_loop().create_task(
            self._run(key, window))
        self._in_flight.add(task)
        task.add_done_callback(self._in_flight.discard)

    async def _run(self, key, window: _Window) -> None:
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor, self._runner, key, list(window.jobs))
            if len(results) != len(window.jobs):  # pragma: no cover
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(window.jobs)} jobs")
        except Exception as exc:
            for future in window.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(window.futures, results):
            if not future.done():
                future.set_result(result)
