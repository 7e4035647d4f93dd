"""Replayable correction-session traces.

Every CorrectBench run is a conversation between the pipeline and an
unreliable model, punctuated by simulation verdicts.  This module
records that conversation as a versioned JSONL stream — one JSON object
per line — capturing enough to *re-run* the session offline:

``session``
    one header line: task, model, seed, criterion and budgets.
``exchange``
    one line per LLM request: intent kind, the full prompt messages, a
    SHA-256 prompt fingerprint, the response text, token usage, and
    wall-clock latency.
``validation``
    one line per validator round: verdict, wrong / correct / uncertain
    scenario sets, the candidate driver and checker sources with their
    hashes, the fault-plan fingerprint (when the backing model exposes
    its ledger via ``introspect``), the number of exchanges consumed so
    far (the mid-trace resume anchor), and per-round timing.
``action``
    one line per Algorithm-1 decision (Correcting / Rebooting / Pass).
``result``
    one trailer line: the final outcome and aggregate usage.

Recording is wired through :class:`~repro.llm.conversation.Conversation`
via a context-variable :class:`TraceSession`, so every pipeline stage
that talks to the model is captured without threading a recorder through
each call site.  The sink is resolved from
:attr:`repro.hdl.context.SimContext.trace_dir` — a plain string knob, so
pool workers (fork *and* spawn) resolve the same directory their parent
configured.

Replaying (:func:`replay_workflow`) rebuilds the workflow from the
header and runs it against a :class:`~repro.llm.replay.ReplayClient`:
the prompts are rebuilt, the code blocks re-parsed, the simulations
re-run — only the model's answers come from the file.  A faithful
pipeline therefore reproduces the recorded verdicts bit for bit, which
is exactly what :class:`ReplayOutcome.matches` checks.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

from ..llm.replay import prompt_sha

#: Trace schema version; bumped when event shapes change so an old
#: artifact fails loudly instead of replaying garbage.
TRACE_VERSION = 1

EVENT_TYPES = ("session", "exchange", "validation", "action", "result")


class TraceFormatError(ValueError):
    """A trace file does not parse as this build's trace schema."""


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class MemoryTraceSink:
    """Collects events in memory (replay comparison, tests)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlTraceSink:
    """Appends events to a JSONL file, one object per line.

    The file is opened lazily on the first event — resolving a sink is
    free until a session actually records something — and every line is
    flushed so a crashed run leaves a usable prefix.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._file = None

    def emit(self, event: dict) -> None:
        if self._file is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def resolve_trace_sink(task_id: str, label: str = ""):
    """A sink for one session, or ``None`` when tracing is off.

    Reads :attr:`~repro.hdl.context.SimContext.trace_dir` from the
    active context; ``""`` (the default) disables tracing.  ``label``
    distinguishes sessions of the same task (campaigns pass the method
    name) — the file is ``<task_id>[.<label>].trace.jsonl``.
    """
    from ..hdl.context import current_context
    trace_dir = current_context().trace_dir
    if not trace_dir:
        return None
    stem = f"{task_id}.{label}" if label else task_id
    return JsonlTraceSink(os.path.join(trace_dir,
                                       f"{stem}.trace.jsonl"))


# ----------------------------------------------------------------------
# The recording session
# ----------------------------------------------------------------------
class TraceSession:
    """Accumulates one session's events into a sink.

    The session owns the exchange counter (so recorded indexes are
    dense and ordered even when several pipeline objects share it) and
    the per-round clock.  It is activated with :func:`use_trace_session`
    and found by :func:`current_trace_session` — the hook
    :meth:`repro.llm.conversation.Conversation.ask` records through.
    """

    def __init__(self, sink):
        self.sink = sink
        self.exchange_count = 0
        self.round_count = 0
        self._round_started = time.perf_counter()

    def _emit(self, event_type: str, **fields) -> None:
        self.sink.emit({"type": event_type, **fields})

    def record_header(self, **fields) -> None:
        self._emit("session", version=TRACE_VERSION, **fields)

    def record_exchange(self, request, response,
                        elapsed: float = 0.0) -> None:
        """Record one LLM request/response pair."""
        intent = request.intent
        self._emit(
            "exchange",
            index=self.exchange_count,
            kind=intent.kind,
            task_id=intent.task_id,
            prompt_sha=prompt_sha(request.prompt_text),
            messages=[[m.role, m.content] for m in request.messages],
            response=response.text,
            usage={"input_tokens": response.usage.input_tokens,
                   "output_tokens": response.usage.output_tokens},
            model=response.model_name,
            elapsed_ms=round(elapsed * 1000.0, 3))
        self.exchange_count += 1

    def record_validation(self, testbench, report,
                          fault_fingerprint: str = "") -> None:
        """Record one validator round over ``testbench``."""
        now = time.perf_counter()
        elapsed, self._round_started = now - self._round_started, now
        self.round_count += 1
        self._emit(
            "validation",
            round=self.round_count,
            verdict=bool(report.verdict),
            wrong=list(report.wrong),
            correct=list(report.correct),
            uncertain=list(report.uncertain),
            note=report.note,
            origin=testbench.origin,
            generation_index=testbench.generation_index,
            correction_index=testbench.correction_index,
            driver_sha=prompt_sha(testbench.driver_src),
            checker_sha=prompt_sha(testbench.checker_src),
            driver_src=testbench.driver_src,
            checker_src=testbench.checker_src,
            fault_fingerprint=fault_fingerprint,
            exchanges_so_far=self.exchange_count,
            elapsed_ms=round(elapsed * 1000.0, 3))

    def record_action(self, action: str, testbench, report) -> None:
        self._emit(
            "action",
            action=action,
            generation_index=testbench.generation_index,
            correction_index=testbench.correction_index,
            verdict=bool(report.verdict),
            wrong=list(report.wrong))

    def record_result(self, result) -> None:
        usage = None
        if result.meter is not None:
            total = result.meter.total
            usage = {"input_tokens": total.input_tokens,
                     "output_tokens": total.output_tokens,
                     "requests": result.meter.request_count}
        self._emit(
            "result",
            validated=result.validated,
            gave_up=result.gave_up,
            corrections=result.corrections,
            reboots=result.reboots,
            rounds=self.round_count,
            usage=usage)

    def close(self) -> None:
        self.sink.close()


_active_session: ContextVar[TraceSession | None] = ContextVar(
    "repro_trace_session", default=None)


def current_trace_session() -> TraceSession | None:
    """The recording session in effect, or ``None`` (tracing off)."""
    return _active_session.get()


@contextmanager
def use_trace_session(session: TraceSession | None):
    """Activate ``session`` for the dynamic extent of a block (nests
    and restores like :func:`repro.hdl.context.use_context`)."""
    token = _active_session.set(session)
    try:
        yield session
    finally:
        _active_session.reset(token)


def fault_fingerprint(client, artifact_text: str) -> str:
    """The backing model's fault plan for ``artifact_text``, if it can
    tell us.

    The synthetic model keeps a ledger of everything it rendered
    (:meth:`repro.llm.synthetic.SyntheticLLM.introspect`); for its
    artifacts the fingerprint is the ``repr`` of the fault plan — a
    deterministic label like ``CheckerFaultPlan(misconception='…')``
    that scenario grading groups by.  Metered wrappers are unwrapped;
    clients without a ledger (live APIs, replays) yield ``""``.
    """
    inner = getattr(client, "inner", client)
    introspect = getattr(inner, "introspect", None)
    if introspect is None:
        return ""
    entry = introspect(artifact_text)
    if entry is None:
        return ""
    return f"{entry.scope}:{entry.plan!r}"


# ----------------------------------------------------------------------
# Loading + replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Trace:
    """A parsed trace: the event stream plus typed accessors."""

    events: tuple = ()

    @property
    def header(self) -> dict:
        if not self.events or self.events[0].get("type") != "session":
            raise TraceFormatError("trace does not start with a "
                                   "session header")
        return self.events[0]

    def exchanges(self) -> list[dict]:
        return [e for e in self.events if e.get("type") == "exchange"]

    def validations(self) -> list[dict]:
        return [e for e in self.events if e.get("type") == "validation"]

    def actions(self) -> list[dict]:
        return [e for e in self.events if e.get("type") == "action"]

    def result(self) -> dict | None:
        for event in reversed(self.events):
            if event.get("type") == "result":
                return event
        return None

    def round_verdicts(self) -> list[tuple]:
        """The replay-comparison key: per-round (verdict, wrong set,
        checker hash) triples.  Two runs with equal round verdicts made
        identical decisions on identical artifacts."""
        return [(v["verdict"], tuple(v["wrong"]), v["checker_sha"])
                for v in self.validations()]

    def exchanges_through_round(self, rounds: int) -> int:
        """Exchange count consumed by the first ``rounds`` validation
        rounds — the :class:`~repro.llm.replay.ReplayClient` ``limit``
        that replays exactly that prefix before handing off."""
        validations = self.validations()
        if not 1 <= rounds <= len(validations):
            raise ValueError(
                f"rounds must be in [1, {len(validations)}], "
                f"got {rounds}")
        return validations[rounds - 1]["exchanges_so_far"]


def parse_trace(lines) -> Trace:
    """Parse an iterable of JSONL lines into a :class:`Trace`."""
    events = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"line {number} is not valid JSON: {exc}") from exc
        if not isinstance(event, dict) or \
                event.get("type") not in EVENT_TYPES:
            raise TraceFormatError(
                f"line {number} is not a trace event: {line[:60]!r}")
        events.append(event)
    trace = Trace(tuple(events))
    version = trace.header.get("version")
    if version != TRACE_VERSION:
        raise TraceFormatError(
            f"trace version {version!r} does not match this build's "
            f"{TRACE_VERSION}")
    return trace


def load_trace(path: str) -> Trace:
    """Load a trace recorded by :class:`JsonlTraceSink`."""
    with open(path, encoding="utf-8") as handle:
        return parse_trace(handle)


@dataclass
class ReplayOutcome:
    """A replayed session next to its recording."""

    result: object                  # the replayed WorkflowResult
    recorded: Trace
    replayed: Trace
    handed_off_at: int | None = None  # exchanges replayed before live

    @property
    def matches(self) -> bool:
        """True when the replay reproduced every recorded round
        verdict (over the replayed prefix, for mid-trace resumes)."""
        recorded = self.recorded.round_verdicts()
        replayed = self.replayed.round_verdicts()
        if self.handed_off_at is None:
            return recorded == replayed
        prefix = [v for v in self.recorded.validations()
                  if v["exchanges_so_far"] <= self.handed_off_at]
        return replayed[:len(prefix)] == \
            self.recorded.round_verdicts()[:len(prefix)]

    def diverged_round(self) -> int | None:
        """1-based first round whose verdict differs (None when the
        compared prefixes agree)."""
        recorded = self.recorded.round_verdicts()
        replayed = self.replayed.round_verdicts()
        for index, (a, b) in enumerate(zip(recorded, replayed), start=1):
            if a != b:
                return index
        if self.handed_off_at is None and \
                len(recorded) != len(replayed):
            return min(len(recorded), len(replayed)) + 1
        return None


def replay_workflow(trace: Trace, *, strict: bool = True,
                    rounds: int | None = None,
                    handoff=None,
                    task_lookup: Callable | None = None,
                    ) -> ReplayOutcome:
    """Re-run a recorded session through the real pipeline.

    The workflow is rebuilt from the trace header; the model's answers
    come from the file via a :class:`~repro.llm.replay.ReplayClient`
    (``strict`` controls prompt matching).  ``rounds`` caps the replayed
    prefix at that many validation rounds, after which requests go to
    ``handoff`` — a live client — implementing mid-trace resume.  The
    replay records itself into memory, so the outcome can compare the
    two event streams round by round.
    """
    # Imported here: the workflow imports this module for recording.
    from ..llm.base import MeteredClient, UsageMeter
    from ..llm.replay import ReplayClient
    from .agent import CorrectBenchWorkflow
    from .validator import CRITERIA, DEFAULT_CRITERION

    header = trace.header
    if task_lookup is None:
        from ..problems import get_task
        task_lookup = get_task
    task = task_lookup(header["task_id"])
    criterion = CRITERIA.get(header.get("criterion", ""),
                             DEFAULT_CRITERION)

    limit = None
    if rounds is not None:
        limit = trace.exchanges_through_round(rounds)
    client = ReplayClient.from_trace(trace, strict=strict, limit=limit,
                                     handoff=handoff)
    metered = MeteredClient(client, UsageMeter())
    sink = MemoryTraceSink()
    workflow = CorrectBenchWorkflow(
        metered, task, criterion,
        ic_max=int(header.get("ic_max", 3)),
        ir_max=int(header.get("ir_max", 10)),
        group_size=int(header.get("group_size", 20)),
        trace_sink=sink)
    result = workflow.run()
    return ReplayOutcome(result=result, recorded=trace,
                         replayed=Trace(tuple(sink.events)),
                         handed_off_at=limit)
