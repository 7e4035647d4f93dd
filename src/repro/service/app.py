"""The testbench-generation service: admission, routing, execution.

One :class:`TestbenchService` owns four moving parts:

- an **asyncio HTTP server** (handwritten HTTP/1.1, see
  :mod:`repro.service.protocol`) with keep-alive connections;
- an **admission gate**: at most ``queue_limit`` requests may be
  admitted-but-unfinished at once.  Past the limit the server answers
  ``429 Too Many Requests`` with a ``Retry-After`` hint derived from
  the observed service rate — callers get an explicit backpressure
  signal instead of unbounded queueing;
- a **micro-batcher** (:mod:`repro.service.batcher`): simulate jobs
  that share a driver, sweep kind and resolved
  :class:`~repro.hdl.context.SimContext` coalesce into one
  :func:`~repro.core.simulation.run_driver_batch` /
  :func:`~repro.core.simulation.run_monolithic_batch` call inside a
  short batch window;
- a **thread executor** running the batches (each batch may further fan
  out across the persistent sim *process* pool, per the context's
  ``jobs``).  A batch that trips over a broken pool retries once after
  :func:`~repro.core.simulation.shutdown_sim_pool` — a fork pool
  heals warm, forking from this process's caches, and no admitted
  request is dropped.

Per-request configuration resolves through
:func:`repro.hdl.context.context_from_request`: ``X-Repro-*`` headers
first, then the body's ``"context"`` object, layered over the context
the service was started with.  All requests share the process's
template caches; a body field the service does not read, ``"tenant"``
included, is ignored.

Shutdown drains: the listener closes first (new connections are
refused), open batch windows flush, and in-flight work finishes —
bounded by ``drain_timeout`` — before the executor stops.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..core.simulation import (run_driver_batch, run_monolithic_batch,
                               shutdown_sim_pool, sim_pool_info,
                               simulation_cache_stats)
from ..hdl.context import (SimContext, context_from_request,
                           current_context, use_context)
from .batcher import MicroBatcher
from .config import ServiceConfig, service_config_from_env
from .protocol import (ProtocolError, Request, json_body, read_request,
                       render_response)

#: Simulate sweep kinds accepted by ``POST /v1/simulate``.
SIMULATE_KINDS = ("hybrid", "monolithic")


class RequestError(Exception):
    """A semantically invalid request (syntactically fine HTTP)."""

    def __init__(self, status: int, code: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail


def _error_body(code: str, detail: str) -> bytes:
    return json_body({"error": {"code": code, "detail": detail}})


# ----------------------------------------------------------------------
# Batch runners (executor threads)
# ----------------------------------------------------------------------
def _run_simulate_batch(key, duts: list[str]) -> list:
    """Execute one coalesced simulate batch.

    ``key`` is the batcher compatibility key: everything that must be
    identical for jobs to share one batch call.  A broken worker pool
    is healed once (shutdown + lazy recreate inside the batch API);
    queued service requests are unaffected either way — they are parked
    in the admission gate and the batcher, not in the dead pool.
    """
    kind, driver_src, context = key
    batch = (run_monolithic_batch if kind == "monolithic"
             else run_driver_batch)
    with use_context(context):
        try:
            return batch(driver_src, duts, context=context)
        except BrokenProcessPool:
            # _pool_map already healed once; a second break lands here.
            # Recreate once more (a fork pool inherits this process's
            # caches) —
            # persistent failure then surfaces as a 500 on this batch
            # only.
            shutdown_sim_pool(wait=False)
            return batch(driver_src, duts, context=context)


def _run_generate(item: tuple):
    """Execute one testbench-generation job (a full method pipeline)."""
    from ..eval.campaign import run_one

    method, task_id, seed, model, criterion, context = item
    return run_one(method, task_id, seed=seed, profile_name=model,
                   criterion_name=criterion, context=context)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class TestbenchService:
    """The asyncio application object (one instance per server).

    Construct, then ``await start()`` inside a running loop.  ``port``
    reports the bound port (useful with ``config.port=0``, which binds
    an ephemeral port).  Use :class:`ServiceThread` to host one on a
    background thread.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    def __init__(self, config: ServiceConfig | None = None,
                 context: SimContext | None = None):
        self.config = config if config is not None \
            else service_config_from_env()
        self.base_context = (context if context is not None
                             else current_context())
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._batcher: MicroBatcher | None = None
        self._draining = False
        self._started_at = 0.0
        # Admission gate: requests admitted but not yet answered.
        self._admitted = 0
        self._idle: asyncio.Event | None = None
        # Telemetry counters.
        self._requests_total = 0
        self._responses: dict[int, int] = {}
        self._rejected_429 = 0
        self._latency_ewma_s = 0.0
        self._routes = {
            ("GET", "/v1/healthz"): self._handle_healthz,
            ("GET", "/v1/status"): self._handle_status,
            ("POST", "/v1/simulate"): self._handle_simulate,
            ("POST", "/v1/generate"): self._handle_generate,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        config = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-service")
        self._batcher = MicroBatcher(
            _run_simulate_batch, self._executor,
            window_s=config.batch_window_ms / 1000.0,
            max_batch=config.batch_max)
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, host=config.host, port=config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI path)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain`` (the default): close the listener so new
        connections are refused, flush every open batch window, then
        wait — up to ``config.drain_timeout`` seconds — for all
        admitted requests to be answered before stopping the executor.
        Without it, in-flight work is abandoned (the executor threads
        still run to completion, daemon-style, but nobody waits).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._batcher is not None:
            self._batcher.flush_all()
            try:
                await asyncio.wait_for(self._idle.wait(),
                                       timeout=self.config.drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
            await self._batcher.join()
        if self._executor is not None:
            self._executor.shutdown(wait=drain, cancel_futures=not drain)

    # -- admission -----------------------------------------------------
    def _retry_after(self) -> int:
        """Seconds a 429'd caller should back off: the time the current
        backlog needs at the observed per-request service rate, clamped
        to [1, 30]."""
        per_request = self._latency_ewma_s or 0.05
        estimate = (self._admitted * per_request
                    / max(1, self.config.workers))
        return max(1, min(30, int(estimate + 0.999)))

    def _admit(self) -> None:
        if self._draining:
            raise RequestError(503, "draining",
                               "server is draining; not accepting work")
        if self._admitted >= self.config.queue_limit:
            self._rejected_429 += 1
            raise RequestError(429, "queue-full",
                               f"admission queue is full "
                               f"({self.config.queue_limit} requests); "
                               f"retry later")
        self._admitted += 1
        self._idle.clear()

    def _release(self, started: float) -> None:
        self._admitted -= 1
        if self._admitted <= 0:
            self._idle.set()
        elapsed = time.monotonic() - started
        if self._latency_ewma_s == 0.0:
            self._latency_ewma_s = elapsed
        else:
            self._latency_ewma_s += 0.2 * (elapsed - self._latency_ewma_s)

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body)
                except ProtocolError as exc:
                    self._count_response(exc.status)
                    writer.write(render_response(
                        exc.status,
                        _error_body("protocol-error", exc.detail),
                        close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                raw, close = await self._respond(request)
                writer.write(raw)
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError,
                TimeoutError):  # pragma: no cover - client went away
            pass
        except asyncio.CancelledError:
            # Shutdown cancels idle keep-alive connections; finish the
            # task cleanly so the stream protocol does not log it.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    OSError):  # pragma: no cover - already torn down
                pass

    async def _respond(self, request: Request) -> tuple[bytes, bool]:
        self._requests_total += 1
        handler = self._routes.get((request.method, request.path))
        extra: dict = {}
        close = request.close or self._draining
        if handler is None:
            allowed = [method for method, path in self._routes
                       if path == request.path]
            if allowed:
                status = 405
                body = _error_body(
                    "method-not-allowed",
                    f"{request.method} not allowed on {request.path}")
                extra["Allow"] = ", ".join(sorted(allowed))
            else:
                status = 404
                body = _error_body("not-found",
                                   f"no such endpoint: {request.path}")
        else:
            try:
                status, payload = await handler(request)
                body = json_body(payload)
            except RequestError as exc:
                status = exc.status
                body = _error_body(exc.code, exc.detail)
                if status == 429:
                    extra["Retry-After"] = str(self._retry_after())
            except ProtocolError as exc:
                status = exc.status
                body = _error_body("protocol-error", exc.detail)
            except Exception as exc:  # noqa: BLE001 - request boundary
                status = 500
                body = _error_body(
                    "internal", f"{type(exc).__name__}: {exc}")
        self._count_response(status)
        return render_response(status, body, extra_headers=extra,
                               close=close), close

    def _count_response(self, status: int) -> None:
        self._responses[status] = self._responses.get(status, 0) + 1

    # -- request decoding ----------------------------------------------
    def _request_context(self, request: Request, body: dict) -> SimContext:
        overrides: dict = {}
        for name in ("max-time", "max-stmts"):
            value = request.header(f"x-repro-{name}")
            if value:
                overrides[name.replace("-", "_")] = value
        body_context = body.get("context", {})
        if not isinstance(body_context, dict):
            raise RequestError(400, "bad-context",
                               '"context" must be a JSON object')
        overrides.update(body_context)
        try:
            return context_from_request(overrides, base=self.base_context)
        except ValueError as exc:
            raise RequestError(400, "bad-context", str(exc)) from None

    @staticmethod
    def _required_str(body: dict, name: str) -> str:
        value = body.get(name)
        if not isinstance(value, str) or not value:
            raise RequestError(400, "bad-request",
                               f'"{name}" must be a non-empty string')
        return value

    def _select_backend(self, body: dict,
                        context: SimContext) -> SimContext:
        """Apply the request's ``"backend"`` selector, whitelisted.

        ``llm_backend`` is an operator knob (deliberately outside
        ``REQUEST_CONTEXT_FIELDS``): a request may only pick
        ``"synthetic"`` or whatever backend the server was *started*
        with — it can never point a shared server at a new endpoint.
        """
        backend = body.get("backend", "")
        if not isinstance(backend, str):
            raise RequestError(400, "bad-backend",
                               '"backend" must be a string')
        if not backend:
            return context
        allowed = {"synthetic", self.base_context.llm_backend}
        allowed.discard("")
        if backend not in allowed:
            raise RequestError(
                400, "bad-backend",
                f"backend {backend!r} is not enabled on this server; "
                f"allowed: {sorted(allowed)}")
        return context.evolve(
            llm_backend="" if backend == "synthetic" else backend)

    # -- handlers ------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> tuple[int, dict]:
        return 200, {"status": "draining" if self._draining else "ok"}

    async def _handle_status(self, request: Request) -> tuple[int, dict]:
        batcher = self._batcher
        return 200, {
            "service": {
                "draining": self._draining,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "requests_total": self._requests_total,
                "responses": {str(code): count for code, count
                              in sorted(self._responses.items())},
                "rejected_429": self._rejected_429,
                "latency_ewma_ms": round(self._latency_ewma_s * 1000, 3),
                "queue": {
                    "admitted": self._admitted,
                    "limit": self.config.queue_limit,
                    "batcher_pending": batcher.pending,
                    "batches_in_flight": batcher.in_flight,
                },
            },
            "batcher": batcher.stats.snapshot(),
            "sim_pool": _jsonable(sim_pool_info()),
            "caches": _jsonable(simulation_cache_stats()),
        }

    async def _handle_simulate(self, request: Request) -> tuple[int, dict]:
        body = request.json()
        driver = self._required_str(body, "driver")
        dut = self._required_str(body, "dut")
        kind = body.get("kind", "hybrid")
        if kind not in SIMULATE_KINDS:
            raise RequestError(400, "bad-request",
                               f'"kind" must be one of {SIMULATE_KINDS}, '
                               f"got {kind!r}")
        context = self._request_context(request, body)
        self._admit()
        started = time.monotonic()
        try:
            key = (kind, driver, context)
            run = await self._batcher.submit(key, dut)
        finally:
            self._release(started)
        payload: dict = {"status": run.status, "detail": run.detail}
        if kind == "monolithic":
            payload["verdict"] = run.verdict
        else:
            payload["records"] = [
                {"scenario": record.scenario, "values": record.values}
                for record in run.records]
            payload["stdout"] = list(run.stdout)
        return 200, payload

    async def _handle_generate(self, request: Request) -> tuple[int, dict]:
        from ..core.validator import CRITERIA, DEFAULT_CRITERION
        from ..eval.methods import registered_methods
        from ..llm.profiles import get_profile
        from ..problems import load_dataset

        body = request.json()
        method = body.get("method", "correctbench")
        if method not in registered_methods():
            raise RequestError(400, "bad-request",
                               f"unknown method {method!r}; registered: "
                               f"{registered_methods()}")
        task_id = self._required_str(body, "task")
        if task_id not in {task.task_id for task in load_dataset()}:
            raise RequestError(400, "bad-request",
                               f"unknown task {task_id!r}")
        seed = body.get("seed", 0)
        if not isinstance(seed, int):
            raise RequestError(400, "bad-request",
                               '"seed" must be an integer')
        model = body.get("model", "gpt-4o")
        if not isinstance(model, str) or not model:
            raise RequestError(400, "bad-request",
                               '"model" must be a non-empty string')
        criterion = body.get("criterion", DEFAULT_CRITERION.name)
        if criterion not in CRITERIA:
            raise RequestError(400, "bad-request",
                               f"unknown criterion {criterion!r}; known: "
                               f"{tuple(sorted(CRITERIA))}")
        context = self._request_context(request, body)
        context = self._select_backend(body, context)
        spec = context.llm_backend or "synthetic"
        if spec == "synthetic" or spec.endswith("+synthetic"):
            # Any spec bottoming out in the synthetic tier resolves the
            # model as a reliability profile; live adapters and fixture
            # replay take provider model ids the profile table cannot
            # know about.
            try:
                get_profile(model)
            except (KeyError, AttributeError):
                raise RequestError(400, "bad-request",
                                   f"unknown model {model!r}") from None
        self._admit()
        started = time.monotonic()
        try:
            loop = asyncio.get_running_loop()
            run = await loop.run_in_executor(
                self._executor, _run_generate,
                (method, task_id, seed, model, criterion, context))
        finally:
            self._release(started)
        return 200, {
            "method": run.method, "task": run.task_id,
            "kind": run.kind, "seed": run.seed,
            "level": run.level.label,
            "validated": run.validated, "gave_up": run.gave_up,
            "corrections": run.corrections, "reboots": run.reboots,
            "usage": {"input_tokens": run.usage.input_tokens,
                      "output_tokens": run.usage.output_tokens},
        }


def _jsonable(value):
    """Make telemetry dicts JSON-clean (tuples -> lists)."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Background-thread hosting (tests, benches, embedding)
# ----------------------------------------------------------------------
class ServiceThread:
    """Run a :class:`TestbenchService` on a dedicated event-loop thread.

    ``start()`` blocks until the port is bound (or raises the startup
    error); ``stop()`` drains and joins.  The CLI uses the asyncio-native
    path instead; this wrapper exists for tests, the throughput bench
    and embedders that are not async themselves.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 context: SimContext | None = None):
        self.service = TestbenchService(config, context)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.service.port is not None, "service not started"
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def stop(self, drain: bool = True) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=drain), self._loop)
        try:
            future.result(timeout=self.service.config.drain_timeout + 30)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
