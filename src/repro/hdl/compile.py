"""Compile pass: ``ProcSpec`` bodies -> shared slot-indexed programs.

This is the execution engine of :mod:`repro.hdl`.  The original engine,
now the test suite's reference interpreter (``tests/oracles/``),
re-walks the statement AST with ``isinstance`` dispatch on every
executed statement; this module lowers each process body *once*:

- expressions are compiled through :mod:`repro.hdl.eval` (widths,
  signedness and constant part-select bounds are all resolved at compile
  time),
- pure statements (no suspension point in their subtree) become plain
  callables ``run(sim, frame)``,
- statement sequences that do suspend become flat *op lists* executed by
  a single driver generator, so a body like ``@(posedge clk); #1;``
  yields its precomputed suspension requests directly instead of
  creating a nested generator per statement,
- ``$display`` format strings are pre-parsed into segment lists and
  event sensitivity lists are resolved to signal slots up front.

**Scope polymorphism.**  Compiled closures never capture ``Signal`` or
``Memory`` objects.  Every runtime object is reached through an integer
slot into a per-elaboration ``frame`` tuple; the
:class:`~repro.hdl.eval.LowerCtx` allocates the slots during lowering
and records, for each name it resolves, a structural *fact* (kind,
width, signedness, bounds).  The resulting :class:`SharedProgram` is
cached globally, keyed by the *value* of the AST body (nodes store their
hash and compare without recursing, see :mod:`repro.hdl.ast`), and is
reused by any later elaboration whose scope matches the recorded
signature — so a testbench driver compiled once is re-*bound* (a cheap
slot-table build) rather than re-*compiled* for every DUT design it is
paired with, and a process that recurs verbatim in another source text
compiles once.
:func:`program_cache_stats` exposes the compile/share/bind counters.

The statement budget (``sim._tick``) is charged at loop back-edges and
suspension points rather than per straight-line statement: loops are the
only unbounded constructs, so the budget still cuts off every runaway
program, while the hot straight-line path stays free of bookkeeping.

Laziness parity: the interpreter only discovers errors on the executed
path, so statement compilation is guarded — a statement whose lowering
raises an :class:`HdlError` is replaced by a closure that re-raises that
same error when (and only when) the statement executes.  Deferred errors
embed the elaboration prefix or the process label in their message, so
such programs are only shared between processes with equal labels.
"""

from __future__ import annotations

import threading
from typing import Callable

from . import ast
from .elaborate import Memory, ProcSpec, Signal
from .errors import FinishRequest, HdlError, SimulationError
from .eval import (SLOT_DESIGN, SLOT_LIT, SLOT_OBJ, SLOT_REQ, LowerCtx,
                   case_match, compile_coerced, compile_expr,
                   compile_expr_deferred, fold, part_width, signed_of,
                   structural_fact)

# Op codes for flattened suspendable statement sequences.
_OP_CALL = 0     # (0, fn)      -> fn(sim, frame)
_OP_YIELD = 1    # (1, idx)     -> yield the prebuilt request frame[idx]
_OP_DELAY = 2    # (2, amt_fn)  -> evaluate the delay amount, then yield
_OP_GEN = 3      # (3, genfn)   -> yield from genfn(sim, frame)


class CompiledProc:
    """A compiled process program bound to one elaboration.

    ``kind`` mirrors the spec's kind.  For ``comb`` processes ``run`` is
    a plain callable ``run(sim)``; for ``initial``/``always`` it is a
    generator function ``run(sim)`` yielding the simulator's suspension
    requests (``("delay", n)`` / ``("wait", resolved_events)``).

    ``memoryless`` marks a program whose next step depends on signal and
    memory values alone: a ``comb`` body that reads no ``$time``, or an
    ``always`` body with no sensitivity list, no nested generator, no
    ``$time`` read and exactly one suspension point (``always #5 clk =
    ~clk``), so a suspended instance has no program counter to remember.
    The kernel's periodic-state fast-forward relies on it.
    """

    __slots__ = ("kind", "run", "memoryless")

    def __init__(self, kind: str, run: Callable, memoryless: bool):
        self.kind = kind
        self.run = run
        self.memoryless = memoryless


# ----------------------------------------------------------------------
# Shared program cache
# ----------------------------------------------------------------------
_PROGRAM_CACHE_SIZE = 1024
_MAX_VARIANTS_PER_KEY = 8

# key -> list[SharedProgram]; keys hold the AST nodes themselves.  A
# plain dict keeps the LRU order, least recently used first: a hit is
# popped and re-inserted, so it compares the probe with the stored key
# once (an OrderedDict's get + move_to_end compares them twice, and
# each comparison of equal trees from different parses walks both).
# The lock guards the scan/evict/insert sequences: concurrent
# DesignTemplate runs in threads reach compile_spec concurrently.
_program_cache: dict = {}
_program_lock = threading.Lock()
_stats = {"programs_compiled": 0, "programs_shared": 0, "specs_bound": 0}


def program_cache_stats() -> dict:
    """Counters for the shared-program layer (telemetry and tests)."""
    with _program_lock:
        return {"size": len(_program_cache), **_stats}


def clear_program_cache() -> None:
    """Drop all shared programs (benchmark cold starts)."""
    with _program_lock:
        _program_cache.clear()

class SharedProgram:
    """A scope-polymorphic compiled process program.

    ``run`` takes ``(sim, frame)``; :meth:`bind` materialises the frame
    for one elaboration (signals/memories resolved by name, wait
    requests prebuilt over them) and returns the bound
    :class:`CompiledProc`.  :meth:`matches` decides whether a given
    spec's scope satisfies the structural signature recorded while the
    program was lowered.
    """

    __slots__ = ("kind", "run", "memoryless", "slot_specs", "signature",
                 "label", "sink_width", "shareable")

    def __init__(self, kind: str, run: Callable, memoryless: bool,
                 ctx: LowerCtx, spec: ProcSpec):
        self.kind = kind
        self.run = run
        self.memoryless = memoryless
        self.slot_specs = tuple(ctx.slot_specs)
        self.signature = ctx.signature()
        # Deferred errors embed the scope prefix or the whole label (the
        # comb guard names the construct: ``always_comb`` and
        # ``always_list`` bodies share a key), so both must match.
        self.label = ((ctx.scope.prefix, spec.label)
                      if ctx.prefix_sensitive else None)
        self.sink_width = (spec.port_bind[2].width
                          if spec.port_bind is not None else None)
        self.shareable = ctx.shareable

    def matches(self, spec: ProcSpec) -> bool:
        scope = spec.scope
        if (self.label is not None
                and (scope.prefix, spec.label) != self.label):
            return False
        if (self.sink_width is not None
                and spec.port_bind[2].width != self.sink_width):
            return False
        for name, fact in self.signature:
            if structural_fact(scope, name) != fact:
                return False
        return True

    def bind(self, spec: ProcSpec) -> CompiledProc:
        with _program_lock:
            _stats["specs_bound"] += 1
        names = spec.scope.names
        frame: list = []
        for slot in self.slot_specs:
            tag = slot[0]
            if tag == SLOT_OBJ:
                frame.append(names[slot[1]])
            elif tag == SLOT_LIT:
                frame.append(slot[1])
            elif tag == SLOT_REQ:
                frame.append(("wait", tuple((edge, frame[i])
                                            for edge, i in slot[1])))
            elif tag == SLOT_DESIGN:
                frame.append(spec.scope.design)
            else:  # SLOT_SINK
                frame.append(spec.port_bind[2])
        bound = tuple(frame)
        run = self.run
        return CompiledProc(self.kind, lambda sim: run(sim, bound),
                            self.memoryless)


def _program_key(spec: ProcSpec):
    """Cache key for a spec's program, or ``None`` when uncacheable.

    Keys are AST values, so a process body that recurs in another
    source text (or a continuous assign re-synthesized by a fresh
    elaboration) finds the program.  Probing costs no tree walk: a node
    returns the hash it stored when it was built, and ``==`` ends at
    the first identical subtree and walks the rest with its own stack,
    so a 3,000-term sum keys a program like a short one.
    """
    if spec.port_bind is not None:
        direction = spec.port_bind[0]
        if direction == "out":
            return None  # a single closure over two signals; see below
        return ("bind_in", spec.port_bind[1])
    return (spec.kind, spec.body, spec.events)


def compile_spec(spec: ProcSpec) -> CompiledProc:
    """Compile (or reuse) the shared program for one elaborated process
    and bind it to the spec's scope.  The bound program is cached on the
    spec, so re-simulations of the same elaborated design skip both the
    lookup and the bind."""
    if spec.compiled is not None:
        return spec.compiled
    program = _shared_program(spec)
    bound = program.bind(spec)
    spec.compiled = bound
    return bound


def _shared_program(spec: ProcSpec) -> SharedProgram:
    key = _program_key(spec)
    if key is not None:
        with _program_lock:
            variants = _program_cache.pop(key, None)
            if variants is not None:
                _program_cache[key] = variants
                for program in variants:
                    if program.matches(spec):
                        _stats["programs_shared"] += 1
                        return program
    # Lowering happens outside the lock (it can be slow); a concurrent
    # thread compiling the same program just adds a duplicate variant,
    # which the per-key cap bounds.
    program = _lower_spec(spec)
    with _program_lock:
        _stats["programs_compiled"] += 1
        if key is not None and program.shareable:
            variants = _program_cache.get(key)
            if variants is None:
                while len(_program_cache) >= _PROGRAM_CACHE_SIZE:
                    del _program_cache[next(iter(_program_cache))]
                variants = _program_cache[key] = []
            if len(variants) < _MAX_VARIANTS_PER_KEY:
                variants.append(program)
    return program


def _lower_spec(spec: ProcSpec) -> SharedProgram:
    ctx = LowerCtx(spec.scope)
    memoryless = spec.kind == "comb"
    if spec.kind == "comb":
        if spec.port_bind is not None:
            run = _compile_port_bind(spec, ctx)
        else:
            run = _compile_comb_body(spec, ctx)
    elif spec.kind == "initial":
        assert spec.body is not None
        run = _compile_initial(spec, ctx)
    elif spec.kind == "always":
        run, memoryless = _compile_always(spec, ctx)
    else:  # pragma: no cover - elaborator invariant
        raise SimulationError(f"unknown process kind {spec.kind!r}")
    return SharedProgram(spec.kind, run, memoryless and not ctx.reads_time,
                         ctx, spec)


# ----------------------------------------------------------------------
# L-value helpers
# ----------------------------------------------------------------------
def _lvalue_width(target: ast.LValue, ctx: LowerCtx) -> int:
    if isinstance(target, ast.LvIdent):
        obj = ctx.lookup(target.name)
        if isinstance(obj, Signal):
            return obj.width
        raise SimulationError(f"cannot size lvalue {target.name!r}")
    if isinstance(target, ast.LvIndex):
        obj = ctx.lookup(target.name)
        if isinstance(obj, Memory):
            return obj.width
        return 1
    if isinstance(target, ast.LvPart):
        return part_width(ctx.const_int(target.msb),
                          ctx.const_int(target.lsb), target.name)
    if isinstance(target, ast.LvConcat):
        return sum(_lvalue_width(p, ctx) for p in target.parts)
    raise SimulationError(f"unsupported lvalue {target!r}")


def _compile_store(target: ast.LValue, ctx: LowerCtx):
    """Compile a blocking-assignment store: ``store(sim, frame, value)``.

    The incoming value is always pre-coerced to the lvalue's width (the
    assignment compiles its right-hand side with the target width as
    context), so whole-signal and single-bit stores skip the defensive
    resizes the interpreter performs per execution.
    """
    if isinstance(target, ast.LvIdent):
        obj = ctx.lookup(target.name)
        if isinstance(obj, Signal):
            i = ctx.obj_slot(target.name)
            return lambda sim, frame, value: sim.set_signal(frame[i], value)
        raise SimulationError(f"cannot assign to {target.name!r}")
    if isinstance(target, ast.LvIndex):
        obj = ctx.lookup(target.name)
        index = compile_expr(target.index, ctx)
        if isinstance(obj, Memory):
            i = ctx.obj_slot(target.name)

            def store_word(sim, frame, value):
                addr = index(frame).to_uint()
                if addr is None:
                    return  # write to unknown index is discarded
                sim.write_memory(frame[i], addr, value)
            return store_word
        if isinstance(obj, Signal):
            i = ctx.obj_slot(target.name)
            width = obj.width

            def store_bit(sim, frame, value):
                idx = index(frame).to_uint()
                if idx is None or idx >= width:
                    return
                sig = frame[i]
                sim.set_signal(sig, sig.value.set_part(idx, idx, value))
            return store_bit
        raise SimulationError(f"cannot assign to {target.name!r}")
    if isinstance(target, ast.LvPart):
        obj = ctx.lookup(target.name)
        if not isinstance(obj, Signal):
            raise SimulationError(f"cannot assign to {target.name!r}")
        i = ctx.obj_slot(target.name)
        msb = ctx.const_int(target.msb)
        lsb = ctx.const_int(target.lsb)

        def store_part(sim, frame, value):
            sig = frame[i]
            sim.set_signal(sig, sig.value.set_part(msb, lsb, value))
        return store_part
    if isinstance(target, ast.LvConcat):
        parts = []
        offset = 0
        for part in reversed(target.parts):
            width = _lvalue_width(part, ctx)
            parts.append((_compile_store(part, ctx),
                          offset + width - 1, offset))
            offset += width

        def store_concat(sim, frame, value):
            for store, hi, lo in parts:
                store(sim, frame, value.part(hi, lo))
        return store_concat
    raise SimulationError(f"unsupported lvalue {target!r}")


def _compile_nba_store(target: ast.LValue, ctx: LowerCtx):
    """Compile a non-blocking store: resolve the address at schedule time,
    append the update to ``sim.nba`` (applied in the NBA region)."""
    if isinstance(target, ast.LvIdent):
        obj = ctx.lookup(target.name)
        if isinstance(obj, Signal):
            i = ctx.obj_slot(target.name)
            return lambda sim, frame, value: sim.nba.append(
                ("sig", frame[i], value))
        raise SimulationError(f"cannot assign to {target.name!r}")
    if isinstance(target, ast.LvIndex):
        obj = ctx.lookup(target.name)
        index = compile_expr(target.index, ctx)
        if isinstance(obj, Memory):
            i = ctx.obj_slot(target.name)

            def sched_word(sim, frame, value):
                addr = index(frame).to_uint()
                if addr is None:
                    return
                sim.nba.append(("mem", frame[i], addr, value))
            return sched_word
        if isinstance(obj, Signal):
            i = ctx.obj_slot(target.name)

            def sched_bit(sim, frame, value):
                idx = index(frame).to_uint()
                if idx is None:
                    return
                sim.nba.append(("part", frame[i], idx, idx, value))
            return sched_bit
        raise SimulationError(f"cannot assign to {target.name!r}")
    if isinstance(target, ast.LvPart):
        obj = ctx.lookup(target.name)
        if not isinstance(obj, Signal):
            raise SimulationError(f"cannot assign to {target.name!r}")
        i = ctx.obj_slot(target.name)
        msb = ctx.const_int(target.msb)
        lsb = ctx.const_int(target.lsb)
        return lambda sim, frame, value: sim.nba.append(
            ("part", frame[i], msb, lsb, value))
    if isinstance(target, ast.LvConcat):
        parts = []
        offset = 0
        for part in reversed(target.parts):
            width = _lvalue_width(part, ctx)
            parts.append((_compile_nba_store(part, ctx),
                          offset + width - 1, offset))
            offset += width

        def sched_concat(sim, frame, value):
            for sched, hi, lo in parts:
                sched(sim, frame, value.part(hi, lo))
        return sched_concat
    raise SimulationError(f"unsupported lvalue {target!r}")


# ----------------------------------------------------------------------
# Event resolution (static: sensitivity lists name plain signals)
# ----------------------------------------------------------------------
def resolve_event_slots(events: tuple[ast.EventExpr, ...],
                        ctx: LowerCtx) -> tuple[tuple[str, int], ...]:
    """Resolve a sensitivity list to ``(edge, signal_slot)`` pairs."""
    resolved = []
    for ev in events:
        if not isinstance(ev.signal, ast.Identifier):
            raise SimulationError(
                "event controls must reference simple signals")
        obj = ctx.lookup(ev.signal.name)
        if not isinstance(obj, Signal):
            raise SimulationError(f"cannot wait on {ev.signal.name!r}")
        resolved.append((ev.edge, ctx.obj_slot(ev.signal.name)))
    return tuple(resolved)


# ----------------------------------------------------------------------
# Format strings ($display and friends), pre-parsed into segments
# ----------------------------------------------------------------------
def _format_segments(fmt: str) -> tuple:
    """Pre-scan a format string into ``("lit", text)`` / ``("arg", spec)``
    segments.  A program scans each distinct display statement's format
    once (:func:`compile_stmt` memoizes the statement), and a program
    recurring in another design is shared whole."""
    segments: list[tuple[str, str]] = []
    literal: list[str] = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            literal.append(ch)
            i += 1
            continue
        i += 1
        # Skip width/zero-pad modifiers: %0d, %2d, ...
        while i < len(fmt) and fmt[i].isdigit():
            i += 1
        if i >= len(fmt):
            raise SimulationError("dangling % in format string")
        spec = fmt[i]
        i += 1
        if spec == "%":
            literal.append("%")
            continue
        if spec not in "dDbBhHxXtTcsS":
            raise SimulationError(f"unsupported format %{spec}")
        if literal:
            segments.append(("lit", "".join(literal)))
            literal.clear()
        segments.append(("arg", spec))
    if literal:
        segments.append(("lit", "".join(literal)))
    return tuple(segments)


def _compile_format(fmt: str, args: tuple[ast.Expr, ...], ctx: LowerCtx):
    pieces: list[tuple] = []
    literal: list[str] = []

    def flush() -> None:
        if literal:
            pieces.append(("lit", "".join(literal)))
            literal.clear()

    arg_iter = iter(args)
    for kind, payload in _format_segments(fmt):
        if kind == "lit":
            literal.append(payload)
            continue
        spec = payload
        try:
            arg = next(arg_iter)
        except StopIteration:
            raise SimulationError(
                f"missing argument for %{spec} in {fmt!r}") from None
        if spec in ("d", "D"):
            flush()
            pieces.append(("d", compile_expr(arg, ctx),
                           signed_of(arg, ctx)))
        elif spec in ("b", "B"):
            flush()
            pieces.append(("b", compile_expr(arg, ctx)))
        elif spec in ("h", "H", "x", "X"):
            flush()
            pieces.append(("h", compile_expr(arg, ctx)))
        elif spec in ("t", "T"):
            flush()
            pieces.append(("t", compile_expr(arg, ctx)))
        elif spec == "c":
            flush()
            pieces.append(("c", compile_expr(arg, ctx)))
        else:  # "s" / "S"
            if isinstance(arg, ast.StringLit):
                literal.append(arg.text)
            else:
                flush()
                pieces.append(("s", compile_expr(arg, ctx)))
    flush()
    frozen = tuple(pieces)

    def render(frame) -> str:
        out = []
        for piece in frozen:
            kind = piece[0]
            if kind == "lit":
                out.append(piece[1])
            elif kind == "d":
                out.append(piece[1](frame).format_decimal(signed=piece[2]))
            elif kind == "b":
                out.append(piece[1](frame).format_binary())
            elif kind == "h":
                out.append(piece[1](frame).format_hex())
            elif kind == "t":
                out.append(piece[1](frame).format_decimal())
            elif kind == "c":
                u = piece[1](frame).to_uint()
                out.append(chr(u & 0xFF) if u is not None else "x")
            else:  # "s"
                value = piece[1](frame)
                u = value.to_uint() or 0
                raw = u.to_bytes((value.width + 7) // 8, "big")
                out.append(raw.decode("latin-1").lstrip("\x00"))
        return "".join(out)
    return render


def _compile_format_args(args: tuple[ast.Expr, ...], ctx: LowerCtx):
    if not args:
        return lambda frame: ""
    first = args[0]
    if isinstance(first, ast.StringLit):
        return _compile_format(first.text, args[1:], ctx)
    fns = tuple(compile_expr(a, ctx) for a in args)
    return lambda frame: " ".join(fn(frame).format_decimal() for fn in fns)


# ----------------------------------------------------------------------
# Statement compilation
# ----------------------------------------------------------------------
# A compiled statement is ``(suspends, run, ops)``:
#   - pure statements: ``run(sim, frame)`` is a plain callable,
#     ``ops == ((_OP_CALL, run),)``;
#   - suspendable statements: ``run(sim, frame)`` is a generator function
#     and ``ops`` is the flattened op sequence, so enclosing blocks/loops
#     can splice it without an extra generator layer.


def _ops_genfunc(ops):
    """Generator function executing a flattened op sequence.

    This is the suspendable-path driver: one generator per execution of
    the whole sequence, however many suspension points it contains.
    """
    if len(ops) == 1 and ops[0][0] == _OP_GEN:
        return ops[0][1]

    def run(sim, frame):
        for op in ops:
            kind = op[0]
            if kind == _OP_CALL:
                op[1](sim, frame)
            elif kind == _OP_YIELD:
                sim._tick()
                yield frame[op[1]]
            elif kind == _OP_DELAY:
                sim._tick()
                amount = op[1](frame).to_uint()
                if amount is None:
                    raise SimulationError("delay amount is unknown (x)")
                yield ("delay", amount)
            else:
                yield from op[1](sim, frame)
    return run


def compile_stmt(stmt: ast.Stmt, ctx: LowerCtx):
    """Compile one statement; returns ``(suspends, run, ops)``.

    Compilation errors are deferred: the returned closure re-raises them
    at execution time, matching the interpreter's executed-path-only
    laziness.

    Each distinct statement lowers once per program: the result, a
    deferred error included, is memoised on the context by statement
    value (see :class:`~repro.hdl.eval.LowerCtx`), so a driver's
    repeated stimulus and dump lines, format strings included, cost one
    lowering each.  Compiled statements hold no per-occurrence state, so
    every occurrence may run the same closures.
    """
    cache = ctx._stmt_cache
    compiled = cache.get(stmt)
    if compiled is None:
        compiled = cache[stmt] = _compile_guarded(stmt, ctx)
    return compiled


def _compile_guarded(stmt: ast.Stmt, ctx: LowerCtx):
    try:
        return _compile_stmt(stmt, ctx)
    except HdlError as exc:
        ctx.note_deferred()

        def raise_deferred(sim, frame, _exc=exc):
            # The instance is shared across executions (and pinned by
            # the program cache): shed the previous raise's traceback so
            # repeated executions don't chain frames forever.
            _exc.__traceback__ = None
            _exc.__context__ = None
            raise _exc
        return False, raise_deferred, ((_OP_CALL, raise_deferred),)


def _pure(run):
    return False, run, ((_OP_CALL, run),)


def _compile_stmt(stmt: ast.Stmt, ctx: LowerCtx):
    if isinstance(stmt, ast.Block):
        return _compile_block(stmt, ctx)

    if isinstance(stmt, ast.BlockingAssign):
        width = _lvalue_width(stmt.target, ctx)
        value = compile_coerced(stmt.value, ctx, width,
                                signed_of(stmt.value, ctx))
        store = _compile_store(stmt.target, ctx)
        return _pure(lambda sim, frame: store(sim, frame, value(frame)))

    if isinstance(stmt, ast.NonblockingAssign):
        width = _lvalue_width(stmt.target, ctx)
        value = compile_coerced(stmt.value, ctx, width,
                                signed_of(stmt.value, ctx))
        sched = _compile_nba_store(stmt.target, ctx)
        return _pure(lambda sim, frame: sched(sim, frame, value(frame)))

    if isinstance(stmt, ast.If):
        return _compile_if(stmt, ctx)

    if isinstance(stmt, ast.Case):
        return _compile_case(stmt, ctx)

    if isinstance(stmt, ast.For):
        return _compile_for(stmt, ctx)

    if isinstance(stmt, ast.While):
        return _compile_while(stmt, ctx)

    if isinstance(stmt, ast.Repeat):
        return _compile_repeat(stmt, ctx)

    if isinstance(stmt, ast.Forever):
        return _compile_forever(stmt, ctx)

    if isinstance(stmt, ast.DelayStmt):
        inner_ops = ()
        if stmt.stmt is not None:
            _, _, inner_ops = compile_stmt(stmt.stmt, ctx)
        # A defined literal delay yields one prebuilt request.
        const = (fold(stmt.amount, ctx.scope).to_uint()
                 if isinstance(stmt.amount, ast.Number) else None)
        if const is not None:
            ops = ((_OP_YIELD, ctx.lit_slot(("delay", const))),) + inner_ops
        else:
            amount = compile_expr(stmt.amount, ctx)
            ops = ((_OP_DELAY, amount),) + inner_ops
        return True, _ops_genfunc(ops), ops

    if isinstance(stmt, ast.EventControl):
        if stmt.events is None:
            raise SimulationError(
                "@(*) is not supported as a procedural statement")
        request = ctx.request_slot(resolve_event_slots(stmt.events, ctx))
        inner_ops = ()
        if stmt.stmt is not None:
            _, _, inner_ops = compile_stmt(stmt.stmt, ctx)
        ops = ((_OP_YIELD, request),) + inner_ops
        return True, _ops_genfunc(ops), ops

    if isinstance(stmt, ast.SysTaskCall):
        return _pure(_compile_sys_task(stmt, ctx))

    if isinstance(stmt, ast.NullStmt):
        return _pure(lambda sim, frame: None)

    raise SimulationError(f"cannot execute statement {stmt!r}")


def _compile_block(stmt: ast.Block, ctx: LowerCtx):
    children = tuple(compile_stmt(s, ctx) for s in stmt.stmts)
    if len(children) == 1:
        return children[0]
    if not any(susp for susp, _, _ in children):
        fns = tuple(run for _, run, _ in children)
        if not fns:
            return _pure(lambda sim, frame: None)

        def run_pure(sim, frame):
            for fn in fns:
                fn(sim, frame)
        return _pure(run_pure)

    # Splice child op sequences into one flat program: consecutive leaf
    # suspensions cost zero generator creations.
    ops: list[tuple] = []
    for _, _, child_ops in children:
        ops.extend(child_ops)
    frozen = tuple(ops)
    return True, _ops_genfunc(frozen), frozen


def _compile_if(stmt: ast.If, ctx: LowerCtx):
    cond = compile_expr(stmt.cond, ctx)
    t_susp, t_run, _ = compile_stmt(stmt.then, ctx)
    if stmt.other is not None:
        e_susp, e_run, _ = compile_stmt(stmt.other, ctx)
    else:
        e_susp, e_run = False, None

    if not t_susp and not e_susp:
        def run_pure(sim, frame):
            if cond(frame).truth() is True:
                t_run(sim, frame)
            elif e_run is not None:
                e_run(sim, frame)
        return _pure(run_pure)

    def run_mixed(sim, frame):
        if cond(frame).truth() is True:
            if t_susp:
                yield from t_run(sim, frame)
            else:
                t_run(sim, frame)
        elif e_run is not None:
            if e_susp:
                yield from e_run(sim, frame)
            else:
                e_run(sim, frame)
    return True, run_mixed, ((_OP_GEN, run_mixed),)


def _compile_case(stmt: ast.Case, ctx: LowerCtx):
    kind = stmt.kind
    subject = compile_expr(stmt.subject, ctx)
    entries: list[tuple] = []
    default = None
    for item in stmt.items:
        body = compile_stmt(item.body, ctx)
        if not item.labels:
            default = body  # like the interpreter: the last default wins
            continue
        # Deferred label compilation: the interpreter evaluates labels
        # in order only until one matches, so a broken label after the
        # match point must not fail the whole case statement.
        labels = tuple(compile_expr_deferred(label, ctx)
                       for label in item.labels)
        entries.append((labels, body))
    frozen = tuple(entries)
    suspends = (any(body[0] for _, body in frozen)
                or (default is not None and default[0]))

    if not suspends:
        def run_pure(sim, frame):
            value = subject(frame)
            for labels, (_, body, _) in frozen:
                for label in labels:
                    if case_match(kind, value, label(frame)):
                        body(sim, frame)
                        return
            if default is not None:
                default[1](sim, frame)
        return _pure(run_pure)

    def run_mixed(sim, frame):
        value = subject(frame)
        for labels, (b_susp, body, _) in frozen:
            for label in labels:
                if case_match(kind, value, label(frame)):
                    if b_susp:
                        yield from body(sim, frame)
                    else:
                        body(sim, frame)
                    return
        if default is not None:
            if default[0]:
                yield from default[1](sim, frame)
            else:
                default[1](sim, frame)
    return True, run_mixed, ((_OP_GEN, run_mixed),)


def _compile_for(stmt: ast.For, ctx: LowerCtx):
    _, init, _ = compile_stmt(stmt.init, ctx)
    _, step, _ = compile_stmt(stmt.step, ctx)
    cond = compile_expr(stmt.cond, ctx)
    b_susp, body, body_ops = compile_stmt(stmt.body, ctx)

    if not b_susp:
        def run_pure(sim, frame):
            init(sim, frame)
            while cond(frame).truth() is True:
                sim._tick()
                body(sim, frame)
                step(sim, frame)
        return _pure(run_pure)

    body_run = _ops_genfunc(body_ops)

    def run_mixed(sim, frame):
        init(sim, frame)
        while cond(frame).truth() is True:
            sim._tick()
            yield from body_run(sim, frame)
            step(sim, frame)
    return True, run_mixed, ((_OP_GEN, run_mixed),)


def _compile_while(stmt: ast.While, ctx: LowerCtx):
    cond = compile_expr(stmt.cond, ctx)
    b_susp, body, body_ops = compile_stmt(stmt.body, ctx)

    if not b_susp:
        def run_pure(sim, frame):
            while cond(frame).truth() is True:
                sim._tick()
                body(sim, frame)
        return _pure(run_pure)

    body_run = _ops_genfunc(body_ops)

    def run_mixed(sim, frame):
        while cond(frame).truth() is True:
            sim._tick()
            yield from body_run(sim, frame)
    return True, run_mixed, ((_OP_GEN, run_mixed),)


def _compile_repeat(stmt: ast.Repeat, ctx: LowerCtx):
    count = compile_expr(stmt.count, ctx)
    b_susp, body, body_ops = compile_stmt(stmt.body, ctx)

    if not b_susp:
        def run_pure(sim, frame):
            for _ in range(count(frame).to_uint() or 0):
                sim._tick()
                body(sim, frame)
        return _pure(run_pure)

    body_run = _ops_genfunc(body_ops)

    def run_mixed(sim, frame):
        for _ in range(count(frame).to_uint() or 0):
            sim._tick()
            yield from body_run(sim, frame)
    return True, run_mixed, ((_OP_GEN, run_mixed),)


def _compile_forever(stmt: ast.Forever, ctx: LowerCtx):
    b_susp, body, body_ops = compile_stmt(stmt.body, ctx)

    if not b_susp:
        def run_pure(sim, frame):
            while True:
                sim._tick()
                body(sim, frame)
        return _pure(run_pure)

    body_run = _ops_genfunc(body_ops)

    def run_mixed(sim, frame):
        while True:
            sim._tick()
            yield from body_run(sim, frame)
    return True, run_mixed, ((_OP_GEN, run_mixed),)


def _compile_sys_task(stmt: ast.SysTaskCall, ctx: LowerCtx):
    name = stmt.name
    if name in ("$finish", "$stop"):
        def run_finish(sim, frame):
            raise FinishRequest()
        return run_finish
    if name in ("$display", "$write"):
        render = _compile_format_args(stmt.args, ctx)
        return lambda sim, frame: sim.stdout.append(render(frame))
    if name in ("$fdisplay", "$fwrite"):
        if not stmt.args:
            raise SimulationError(f"{name} requires a descriptor")
        fd_expr = compile_expr(stmt.args[0], ctx)
        render = _compile_format_args(stmt.args[1:], ctx)
        is_display = name == "$fdisplay"

        def run_fwrite(sim, frame):
            fd = fd_expr(frame).to_uint()
            if fd is None or fd not in sim._fd_lines:
                raise SimulationError(f"{name}: invalid file descriptor")
            text = render(frame)
            if is_display:
                line = sim._fd_partial[fd] + text
                sim._fd_partial[fd] = ""
                sim._fd_lines[fd].append(line)
            else:
                sim._fd_partial[fd] += text
        return run_fwrite
    if name in ("$fclose", "$dumpfile", "$dumpvars", "$timeformat",
                "$monitor", "$fflush"):
        return lambda sim, frame: None
    raise SimulationError(f"unsupported system task {name!r}")


# ----------------------------------------------------------------------
# Process compilation
# ----------------------------------------------------------------------
def _compile_comb_body(spec: ProcSpec, ctx: LowerCtx):
    suspends, body, _ = compile_stmt(spec.body, ctx)
    if not suspends:
        return body
    # The guard message embeds the process label (prefix + construct
    # suffix); noting it makes the program match on the whole label.
    ctx.note_deferred()
    label = spec.label

    def run_guarded(sim, frame):
        for _ in body(sim, frame):
            raise SimulationError(
                "delay/event control inside combinational block "
                f"{label!r}")
    return run_guarded


def _compile_port_bind(spec: ProcSpec, ctx: LowerCtx):
    direction, source, sink = spec.port_bind
    if direction == "in":
        # Parent expression drives the child port signal (the sink slot
        # is filled from the spec at bind time; its width is part of the
        # program's match criteria).
        si = ctx.sink_slot()
        value = compile_coerced(source, ctx, sink.width, False)
        return lambda sim, frame: sim.set_signal(frame[si], value(frame))
    # Output binds connect two concrete Signal objects — the child's
    # port signal lives outside the parent scope, so there is no name to
    # rebind by.  The whole program is a single closure; compiling it
    # per elaboration costs the same as binding would.
    ctx.shareable = False
    width = sink.width
    if source.width == width:
        return lambda sim, frame: sim.set_signal(sink, source.value)
    return lambda sim, frame: sim.set_signal(sink,
                                             source.value.resize(width))


def _compile_initial(spec: ProcSpec, ctx: LowerCtx):
    suspends, run, ops = compile_stmt(spec.body, ctx)
    if suspends:
        return _ops_genfunc(ops)

    def gen(sim, frame):
        run(sim, frame)
        return
        yield  # pragma: no cover - makes this a generator function
    return gen


def _compile_always(spec: ProcSpec, ctx: LowerCtx):
    """Compile an ``always`` body; returns ``(run, memoryless)``, the
    flag before the ``$time`` check (see :class:`CompiledProc`)."""
    assert spec.body is not None
    events = spec.events or ()
    pairs = resolve_event_slots(events, ctx) if events else ()
    req_idx = ctx.request_slot(pairs) if pairs else None
    suspends, body, body_ops = compile_stmt(spec.body, ctx)

    if pairs and not suspends:
        k = req_idx

        def run_clocked(sim, frame):
            request = frame[k]
            while True:
                sim._tick()
                yield request
                body(sim, frame)
        return run_clocked, False

    if suspends:
        # Per-clock-edge hot path (e.g. `always #5 clk = ~clk`): the
        # op-dispatch loop from _ops_genfunc is inlined on purpose so no
        # body generator is created per iteration, forever.  Keep the
        # dispatch in sync with _ops_genfunc; the golden-equivalence and
        # differential-fuzz suites pin the semantics.
        k = req_idx

        def run_mixed_always(sim, frame):
            request = frame[k] if k is not None else None
            while True:
                sim._tick()
                if request is not None:
                    yield request
                for op in body_ops:
                    kind = op[0]
                    if kind == _OP_CALL:
                        op[1](sim, frame)
                    elif kind == _OP_YIELD:
                        sim._tick()
                        yield frame[op[1]]
                    elif kind == _OP_DELAY:
                        sim._tick()
                        amount = op[1](frame).to_uint()
                        if amount is None:
                            raise SimulationError(
                                "delay amount is unknown (x)")
                        yield ("delay", amount)
                    else:
                        yield from op[1](sim, frame)
        suspensions = [op[0] for op in body_ops if op[0] != _OP_CALL]
        return run_mixed_always, (k is None
                                  and suspensions in ([_OP_YIELD],
                                                      [_OP_DELAY]))

    def run_free(sim, frame):
        # No suspension points at all: the statement budget is the only
        # brake, exactly like the reference interpreter.
        while True:
            sim._tick()
            body(sim, frame)
        yield  # pragma: no cover - unreachable; makes this a generator
    return run_free, False
