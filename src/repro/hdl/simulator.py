"""Event-driven simulator kernel.

The kernel implements a simplified IEEE 1364 scheduling model with three
regions per time slot:

``active``
    process resumptions and combinational re-evaluations,
``inactive``
    ``#0`` continuations, promoted when the active region drains,
``NBA``
    non-blocking assignment updates, applied when both queues drain.

Processes are Python generators; they yield suspension requests
(``#delay`` / ``@(events)``) back to the kernel.  Combinational processes
(continuous assignments, ``always @(*)``, port bindings) are plain
callables re-run whenever one of their read signals changes; convergence
is guaranteed by only propagating actual value changes, and runaway
feedback is cut off by a per-slot delta budget.

Process bodies are lowered once by :mod:`repro.hdl.compile` into
slot-indexed closure programs that only yield at real suspension
points.  Programs are scope-polymorphic: they are cached globally by
AST value + structural signature and merely *re-bound* (a cheap
slot-table build) for each new elaboration, so pairing one driver with
many DUT designs compiles it once; the bound program is then cached on
the ``ProcSpec`` so re-simulating the same elaborated design skips the
bind too.  The test suite keeps a statement-walking interpreter
(``tests/oracles/``) as the behavioural reference the compiled
programs are checked against.

**Periodic-state fast-forward**.  A candidate
that forgets ``clk = 0`` ticks an ``x`` clock until ``max_time`` while
its stimulus waits for an edge that never comes.  Every
``FF_SAMPLE_EVERY`` time advances, between time slots, the kernel
samples the state the rest of the run depends on (values, output
lengths, ``$random`` and descriptor state, process and wait-token
state, and the future heap relative to now; see
:meth:`Simulator._periodic_state`).  Two equal samples ``P`` time units
apart mean the run repeats with period ``P``: the kernel is
deterministic, and its next steps depend on that sample alone because
every process pending in the heap is *memoryless* (one suspension
point, no program counter to remember) and no code that can run reads
``$time``.  So it is exact to add whole periods to the time and
statement count and shift the heap.  The kernel keeps at least one
period of headroom below ``max_time`` and ``max_stmts`` and simulates
the tail normally, so a limit still fires with the same message, time,
statement count and output as a full run.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .compile import compile_spec
from .context import current_context
from .elaborate import Design, Memory, ProcSpec, Signal, elaborate
from .errors import FinishRequest, SimulationError, SimulationLimit
from .logic import Logic
from .parser import parse_source_cached

MAX_DELTAS_PER_SLOT = 20_000
# Time advances between two periodic-state samples, and the number of
# distinct heap shapes remembered between them (see _fast_forward).
FF_SAMPLE_EVERY = 1024
_FF_MAX_SHAPES = 16


class WaitToken:
    __slots__ = ("process", "armed")

    def __init__(self, process: "Process"):
        self.process = process
        self.armed = True


class Process:
    __slots__ = ("name", "gen", "tokens", "done", "memoryless")

    def __init__(self, name: str, gen, memoryless: bool = False):
        self.name = name
        self.gen = gen
        self.tokens: list[WaitToken] = []
        self.done = False
        # See CompiledProc.memoryless.
        self.memoryless = memoryless


class CombProcess:
    __slots__ = ("name", "run", "pending", "runs_this_slot")

    def __init__(self, name: str, run):
        self.name = name
        self.run = run
        self.pending = False
        self.runs_this_slot = 0


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""
    finished: bool
    sim_time: int
    stdout: list[str]
    files: dict[str, list[str]] = field(default_factory=dict)
    stmt_count: int = 0
    design: Optional[Design] = None

    def file_text(self, name: str) -> str:
        return "\n".join(self.files.get(name, []))

    def signal_value(self, hier_name: str) -> Logic:
        assert self.design is not None
        return self.design.signal(hier_name).value


class Simulator:
    """Runs an elaborated :class:`Design`."""

    def __init__(self, design: Design, max_time: int | None = None,
                 max_stmts: int | None = None, seed: int = 0):
        # Resolution order for every knob: explicit argument > active
        # context > env-seeded root context.
        context = current_context()
        self.design = design
        self.max_time = context.max_time if max_time is None else max_time
        self.max_stmts = (context.max_stmts if max_stmts is None
                          else max_stmts)
        self.time = 0
        self.stmt_count = 0
        self.finish_requested = False

        self.active: deque = deque()
        self.inactive: deque = deque()
        self.nba: list[tuple] = []
        self.future: list[tuple[int, int, Process]] = []
        self._seq = 0

        self.stdout: list[str] = []
        self._fd_names: dict[int, str] = {}
        self._fd_lines: dict[int, list[str]] = {}
        self._fd_partial: dict[int, str] = {}
        self._next_fd = 3
        self._rand_state = (seed * 2654435761 + 1) & 0xFFFFFFFF

        self._comb_procs: list[CombProcess] = []
        self._processes: list[Process] = []
        # Periodic-state fast-forward: cleared by any comb process that
        # is not memoryless.  ``_ff_marks`` maps a sampled heap shape to
        # the last ``(time, stmt_count, state)`` seen with it.
        self._ff_enabled = True
        self._ff_marks: dict[tuple, tuple] = {}
        # The combinational process currently executing; its own writes do
        # not re-trigger it (a process cannot observe events while it runs).
        self._current_comb: CombProcess | None = None

        design.runtime_time = lambda: self.time
        design.runtime_random = self._next_random
        design.runtime_fopen = self._fopen

        # Trigger lists live on the signal/memory objects themselves
        # (no dict lookup per value change); clear any lists left by a
        # previous simulation of the same elaborated design.
        for sig in design.signals.values():
            sig.combs = None
        for mem in design.memories.values():
            mem.combs = None

        self._instantiate(design.processes)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _instantiate(self, specs: Iterable[ProcSpec]) -> None:
        for spec in specs:
            program = compile_spec(spec)
            if spec.kind == "comb":
                if not program.memoryless:
                    self._ff_enabled = False
                self._add_comb(spec, program.run)
            else:  # initial / always (compile_spec rejects other kinds)
                proc = Process(spec.label, program.run(self),
                               program.memoryless)
                self._processes.append(proc)
                self.active.append(proc)

    def _add_comb(self, spec: ProcSpec, runner) -> None:
        comb = CombProcess(spec.label, runner)
        self._comb_procs.append(comb)
        for obj in spec.reads:
            if obj.combs is None:
                obj.combs = []
            obj.combs.append(comb)
        # Every combinational process evaluates once at time zero.
        comb.pending = True
        self.active.append(comb)

    # ------------------------------------------------------------------
    # Runtime services
    # ------------------------------------------------------------------
    def _next_random(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0xFFFFFFFF
        return self._rand_state

    def _fopen(self, filename: str) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fd_names[fd] = filename
        self._fd_lines[fd] = []
        self._fd_partial[fd] = ""
        return fd

    # ------------------------------------------------------------------
    # Value updates
    # ------------------------------------------------------------------
    def set_signal(self, sig: Signal, value: Logic) -> None:
        old = sig.value
        if old.val == value.val and old.xmask == value.xmask:
            return
        sig.value = value
        # Inlined notification (this is the hottest kernel path).
        combs = sig.combs
        if combs:
            for comb in combs:
                if not comb.pending and comb is not self._current_comb:
                    comb.pending = True
                    self.active.append(comb)
        if sig.waiters:
            self._wake_waiters(sig, old, value)

    def _wake_waiters(self, sig: Signal, old: Logic, new: Logic) -> None:
        # LSB as 0 / 1 / 2(=x); an edge fires per the 1364 value
        # transition table (x transitions count for both edges except
        # the excluded endpoint).
        old_bit = 2 if old.xmask & 1 else old.val & 1
        new_bit = 2 if new.xmask & 1 else new.val & 1
        pos = old_bit != new_bit and new_bit != 0 and old_bit != 1
        neg = old_bit != new_bit and new_bit != 1 and old_bit != 0
        keep = []
        for token, edge in sig.waiters:
            if not token.armed:
                continue
            fire = (edge == "any" or (edge == "pos" and pos)
                    or (edge == "neg" and neg))
            if fire:
                token.armed = False
                self.active.append(token.process)
            else:
                keep.append((token, edge))
        sig.waiters[:] = keep

    def write_memory(self, mem: Memory, addr: int, value: Logic) -> None:
        if addr < mem.lo or addr > mem.hi:
            return
        idx = addr - mem.lo
        old = mem.words[idx]
        value = value.resize(mem.width)
        if old.val == value.val and old.xmask == value.xmask:
            return
        mem.words[idx] = value
        combs = mem.combs
        if combs:
            for comb in combs:
                if not comb.pending and comb is not self._current_comb:
                    comb.pending = True
                    self.active.append(comb)
        if mem.waiters:
            keep = []
            for token, _edge in mem.waiters:
                if token.armed:
                    token.armed = False
                    self.active.append(token.process)
            mem.waiters[:] = keep

    def _apply_nba(self) -> None:
        # Drain in place: the list object stays stable so the scheduler
        # loop can hold a local reference to it.
        updates = self.nba[:]
        del self.nba[:]
        for entry in updates:
            kind = entry[0]
            if kind == "sig":
                _, sig, value = entry
                self.set_signal(sig, value)
            elif kind == "part":
                _, sig, msb, lsb, value = entry
                self.set_signal(sig, sig.value.set_part(msb, lsb, value))
            else:
                _, mem, addr, value = entry
                self.write_memory(mem, addr, value)

    # ------------------------------------------------------------------
    # Statement budget (charged by compiled programs)
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.stmt_count += 1
        if self.stmt_count > self.max_stmts:
            raise SimulationLimit(
                f"statement budget of {self.max_stmts} exhausted at "
                f"t={self.time} (runaway loop or missing $finish?)")

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _run_process(self, proc: Process) -> None:
        try:
            request = next(proc.gen)
        except StopIteration:
            proc.done = True
            return
        except FinishRequest:
            proc.done = True
            self.finish_requested = True
            return
        kind = request[0]
        if kind == "delay":
            amount = request[1]
            if amount == 0:
                self.inactive.append(proc)
            else:
                self._seq += 1
                heapq.heappush(self.future,
                               (self.time + amount, self._seq, proc))
            return
        if kind == "wait":
            token = WaitToken(proc)
            proc.tokens = [token]
            for edge, sig in request[1]:
                sig.waiters.append((token, edge))
            return
        raise SimulationError(f"unknown suspension {request!r}")

    def _run_comb(self, comb: CombProcess) -> None:
        comb.pending = False
        comb.runs_this_slot += 1
        if comb.runs_this_slot > MAX_DELTAS_PER_SLOT:
            raise SimulationLimit(
                f"combinational loop detected around {comb.name!r} at "
                f"t={self.time}")
        self._current_comb = comb
        try:
            comb.run(self)
        except FinishRequest:
            # $finish inside a combinational block must end the run, not
            # escape Simulator.run() as an internal exception.
            self.finish_requested = True
        finally:
            self._current_comb = None

    # ------------------------------------------------------------------
    # Periodic-state fast-forward
    # ------------------------------------------------------------------
    def _periodic_state(self) -> tuple | None:
        """Everything the rest of the run depends on, minus the absolute
        time and statement count; ``None`` when some pending process has
        hidden generator state (it is not memoryless).

        Sampled between time slots, when the active, inactive and NBA
        queues are empty.  Processes and wait tokens define no
        ``__eq__``, so comparing two states compares them by identity
        (``is``) against the references this tuple holds.
        """
        now = self.time
        heap = []
        for t, _, proc in sorted(self.future):
            if not proc.memoryless:
                return None
            heap.append((t - now, proc))
        design = self.design
        return (
            tuple(heap),
            tuple((proc.done,
                   proc.tokens[0] if proc.tokens and proc.tokens[0].armed
                   else None)
                  for proc in self._processes),
            tuple(sig.value for sig in design.signals.values()),
            tuple(tuple(mem.words) for mem in design.memories.values()),
            len(self.stdout),
            tuple(len(lines) for lines in self._fd_lines.values()),
            tuple(len(text) for text in self._fd_partial.values()),
            self._rand_state,
            self._next_fd,
        )

    def _fast_forward(self) -> None:
        """Skip whole periods once the run has entered a periodic state.

        Equal states at sample times ``T1 < T2`` mean the run repeats
        with period ``T2 - T1`` and the same statement count per period:
        the kernel is deterministic, every pending process resumes from
        values alone, and no code that could run reads ``$time``.  Whole
        periods are skipped while at least one period of headroom stays
        below both ``max_time`` and ``max_stmts``; the ordinary kernel
        then simulates the tail, so whichever limit fires does so with
        the message, time and counts of a full run.

        Samples are matched per heap shape, not just against the previous
        sample: with several clocks (say periods 5 and 7) consecutive
        samples land on different phases of the joint period, and only a
        later sample with the same shape can repeat an earlier one.
        """
        state = self._periodic_state()
        if state is None:
            return
        marks = self._ff_marks
        if len(marks) >= _FF_MAX_SHAPES:
            marks.clear()
        mark = marks.get(state[0])
        marks[state[0]] = (self.time, self.stmt_count, state)
        if mark is None or mark[2] != state:
            return
        # Both positive: each of the time advances between the samples
        # resumed a heap process, and a memoryless one ticks per resume.
        period = self.time - mark[0]
        stmts = self.stmt_count - mark[1]
        skip = min((self.max_time - self.time) // period,
                   (self.max_stmts - self.stmt_count) // stmts) - 1
        if skip < 1:
            return
        shift = skip * period
        self.time += shift
        self.stmt_count += skip * stmts
        # A uniform shift keeps the heap invariant.
        self.future[:] = [(t + shift, seq, proc)
                          for t, seq, proc in self.future]
        marks.clear()

    def run(self) -> SimulationResult:
        # Local aliases: this loop is the hottest few lines of the whole
        # system (every evaluation pipeline bottoms out here).
        active = self.active
        inactive = self.inactive
        nba = self.nba
        run_comb = self._run_comb
        run_process = self._run_process
        future = self.future
        # Time advances until the next periodic-state sample; negative
        # (never reaching zero) when fast-forward is off.
        countdown = FF_SAMPLE_EVERY if self._ff_enabled else -1
        while True:
            # Delta loop for the current time slot.
            while active or inactive or nba:
                if self.finish_requested:
                    break
                if active:
                    item = active.popleft()
                    if item.__class__ is CombProcess:
                        run_comb(item)
                    else:
                        run_process(item)
                elif inactive:
                    active.append(inactive.popleft())
                else:
                    self._apply_nba()
            if self.finish_requested or not future:
                break
            countdown -= 1
            if not countdown:
                countdown = FF_SAMPLE_EVERY
                self._fast_forward()
            next_time, _, proc = heapq.heappop(future)
            if next_time > self.max_time:
                raise SimulationLimit(
                    f"simulation exceeded max_time={self.max_time} "
                    "(missing $finish?)")
            self.time = next_time
            for comb in self._comb_procs:
                comb.runs_this_slot = 0
            active.append(proc)
            while future and future[0][0] == next_time:
                _, _, other = heapq.heappop(future)
                active.append(other)

        # Text from a trailing $fwrite (no closing $fdisplay) is the
        # file's last line.
        files = {}
        for fd, lines in self._fd_lines.items():
            partial = self._fd_partial[fd]
            files[self._fd_names[fd]] = [*lines, partial] if partial else lines
        return SimulationResult(
            finished=self.finish_requested,
            sim_time=self.time,
            stdout=self.stdout,
            files=files,
            stmt_count=self.stmt_count,
            design=self.design,
        )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def compile_design(sources: str | Iterable[str], top: str) -> Design:
    """Parse and elaborate; raises on syntax or elaboration errors.

    This is the "does it compile" check that AutoEval's Eval0 uses.
    Parsing goes through the text-keyed parse cache; elaboration is
    always fresh (each call returns an independent design).
    """
    if isinstance(sources, str):
        text = sources
    else:
        text = "\n".join(sources)
    return elaborate(parse_source_cached(text), top)


def simulate(sources: str | Iterable[str], top: str,
             max_time: int | None = None,
             max_stmts: int | None = None,
             seed: int = 0) -> SimulationResult:
    """Compile and run a design; the testbench must call ``$finish``.

    ``max_time`` and ``max_stmts`` left as ``None`` resolve through the
    active :class:`~repro.hdl.context.SimContext`
    (:func:`~repro.hdl.context.current_context`).
    """
    design = compile_design(sources, top)
    return Simulator(design, max_time=max_time, max_stmts=max_stmts,
                     seed=seed).run()
