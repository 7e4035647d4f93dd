"""Thread-based concurrent fan-out for live-backend work items.

Campaign items against a live endpoint are I/O-bound — the process
spends its time waiting on sockets, not simulating — so threads (which
share the parent's caches and need no pickling) are the right executor,
where the synthetic tier uses the process pool.  Actual wire
concurrency stays bounded by the global in-flight cap
(:data:`repro.llm.backends.resilience.GLOBAL_IN_FLIGHT`), which every
:class:`~repro.llm.backends.resilience.ResilientBackend` holds during a
request: ``iter_fan_out`` may run 32 items, but only the cap's worth of
requests are ever on the wire.  ``concurrent.futures`` loads with the
first fan-out, so a synthetic run never imports it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def iter_fan_out(fn: Callable[[Item], Result], items: Sequence[Item], *,
                 max_workers: int | None = None,
                 ) -> Iterator[tuple[int, Result]]:
    """Apply ``fn`` to every item on a thread pool, yielding
    ``(index, result)`` as each item completes.

    The first item to raise propagates its exception once every
    submitted item finishes.
    """
    from concurrent.futures import ThreadPoolExecutor, as_completed

    items = list(items)
    if not items:
        return
    workers = max_workers if max_workers is not None else len(items)
    workers = max(1, min(workers, len(items)))
    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix="repro-llm") as pool:
        futures = {pool.submit(fn, item): index
                   for index, item in enumerate(items)}
        for future in as_completed(futures):
            yield futures[future], future.result()
