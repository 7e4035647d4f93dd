"""``repro.service`` — the asyncio testbench-generation service.

The context / registry / warm-pool stack (``SimContext`` resolution,
per-task cache scopes, workers forked from a warm parent) was shaped
for a long-lived server; this package is that server.  A handwritten
HTTP/1.1 layer (:mod:`repro.service.protocol`, stdlib-only) fronts a
bounded admission queue with explicit backpressure, a cross-request
micro-batcher that coalesces compatible simulate jobs into
:func:`repro.core.simulation.run_driver_batch` windows
(:mod:`repro.service.batcher`), per-tenant task-scoped caches and
per-request ``SimContext`` resolution (:mod:`repro.service.app`).

Entry points:

- ``python -m repro.cli serve`` — run the server (and
  ``serve --status`` to query a running one);
- :class:`TestbenchService` — the asyncio application object;
- :class:`ServiceThread` — run a service on a background thread
  (tests, benchmarks, embedding);
- :class:`ServiceConfig` / :func:`service_config_from_env` — the
  operational knobs (``REPRO_SERVICE_*``).

See ``docs/service.md`` for the API reference and operations runbook.
"""

from .app import ServiceThread, TestbenchService
from .batcher import BatchStats, MicroBatcher
from .config import (DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS,
                     DEFAULT_DRAIN_TIMEOUT, DEFAULT_HOST, DEFAULT_MAX_BODY,
                     DEFAULT_PORT, DEFAULT_QUEUE_LIMIT, DEFAULT_WORKERS,
                     ServiceConfig, service_config_from_env)
from .protocol import (ProtocolError, Request, parse_request_head,
                       read_request, render_response)

__all__ = [
    "BatchStats",
    "DEFAULT_BATCH_MAX",
    "DEFAULT_BATCH_WINDOW_MS",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_HOST",
    "DEFAULT_MAX_BODY",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WORKERS",
    "MicroBatcher",
    "ProtocolError",
    "Request",
    "ServiceConfig",
    "ServiceThread",
    "TestbenchService",
    "parse_request_head",
    "read_request",
    "render_response",
    "service_config_from_env",
]
