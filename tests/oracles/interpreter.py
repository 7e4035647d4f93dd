"""Statement-walking interpreter: the simulator's behavioural oracle.

The runtime :class:`~repro.hdl.simulator.Simulator` only runs programs
lowered by :mod:`repro.hdl.compile`.  :class:`InterpretedSimulator`
shares its kernel (scheduler, value updates, statement budget, file
descriptors) but executes process bodies by re-walking the statement
AST with recursive generators, the way the simulator originally did.
It is the reference the differential suites hold the compiled programs
to (``tests/hdl/test_diff_fuzz.py``, ``test_compiled_equivalence.py``,
``test_fast_forward.py``), and the slow side of the
``counter compiled >= 2x interpret`` microbench floor.

It also owns the reference expression evaluator, :func:`eval_expr`,
which re-walks the expression AST on every evaluation and shares only
width and sign inference with the runtime's lowering, and the reference
constant evaluator, :func:`const_value`, which applies the constant
expression rule (parameters, literals and constant system functions
only) before it evaluates.  Part-select bounds and replication counts
go through it, so a bound that reads a ``reg`` raises the runtime's
``'<name>' is not a constant`` on both engines.  Elaboration (and so
each ``parameter`` and ``reg`` initialiser) is the runtime's.

It never fast-forwards: with no periodic-state skipping, a runaway run
ticks every time step, which is what makes it a reference for the
compiled kernel's fast-forward.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.hdl import ast
from repro.hdl.elaborate import Memory, ProcSpec, Scope, Signal
from repro.hdl.errors import (ElaborationError, FinishRequest,
                              NotConstantError, SimulationError)
from repro.hdl.eval import (_COMPARE, _CTX_ARITH, _LOGICAL, _SHIFTS,
                            _arith_chain, _chain_shape, case_match,
                            check_width, signed_of, width_of)
from repro.hdl.logic import Logic
from repro.hdl.simulator import (Process, SimulationResult, Simulator,
                                 compile_design)


# ----------------------------------------------------------------------
# Expression evaluation (the reference for repro.hdl.eval.compile_expr)
# ----------------------------------------------------------------------
def _read_name(scope: Scope, name: str) -> Logic:
    obj = scope.lookup(name)
    if isinstance(obj, Signal):
        return obj.value
    if isinstance(obj, Logic):
        return obj
    raise ElaborationError(f"cannot read {name!r} as a value")


#: System functions whose value depends on the simulation run.
_RUNTIME_HOOKS = frozenset({"$time", "$random", "$urandom", "$fopen"})


def _variable_read(expr: ast.Expr, scope: Scope) -> str | None:
    """The first name that keeps ``expr`` from being a constant
    expression (IEEE 1364-2005 5.2), or ``None``.

    A constant reads literals, parameters and constant system functions
    only; a signal, a memory word or a runtime hook is variable, in a
    selected ternary branch or not.  "First" means a variable in a
    nested part-select bound or replication count, then operands left
    to right, an index before the vector or memory it selects from.
    This is a recursive formulation of the runtime's stack walk
    (``repro.hdl.eval._first_variable``), which the fold fuzz holds it
    to.
    """
    bounds: list[ast.Expr] = []
    reads: list[str] = []
    _collect_reads(expr, scope, bounds, reads)
    for bound in bounds:
        name = _variable_read(bound, scope)
        if name is not None:
            return name
    return reads[0] if reads else None


def _collect_reads(expr: ast.Expr, scope: Scope, bounds: list[ast.Expr],
                   reads: list[str]) -> None:
    """Append ``expr``'s variable reads to ``reads`` in operand order, and
    the part-select bounds and replication counts in it to ``bounds``.
    A left-deep operator run is followed in a loop, so a 3,000-term sum
    does not recurse once per operator."""
    rights = []
    while isinstance(expr, ast.Binary):
        rights.append(expr.right)
        expr = expr.left
    if rights:
        for operand in (expr, *reversed(rights)):
            _collect_reads(operand, scope, bounds, reads)
    elif isinstance(expr, ast.Identifier):
        if isinstance(scope.names.get(expr.name), Signal):
            reads.append(expr.name)
    elif isinstance(expr, ast.Index):
        _collect_reads(expr.index, scope, bounds, reads)
        if isinstance(scope.names.get(expr.base), (Signal, Memory)):
            reads.append(expr.base)
    elif isinstance(expr, ast.PartSelect):
        if isinstance(scope.names.get(expr.base), Signal):
            reads.append(expr.base)
        bounds += (expr.msb, expr.lsb)
    elif isinstance(expr, ast.Replicate):
        bounds.append(expr.count)
        _collect_reads(expr.value, scope, bounds, reads)
    elif isinstance(expr, ast.SystemCall):
        if expr.name in _RUNTIME_HOOKS:
            reads.append(expr.name)
        else:
            for arg in expr.args:
                _collect_reads(arg, scope, bounds, reads)
    elif isinstance(expr, ast.Unary):
        _collect_reads(expr.operand, scope, bounds, reads)
    elif isinstance(expr, ast.Ternary):
        for part in (expr.cond, expr.then, expr.other):
            _collect_reads(part, scope, bounds, reads)
    elif isinstance(expr, ast.Concat):
        for part in expr.parts:
            _collect_reads(part, scope, bounds, reads)


def const_value(expr: ast.Expr, scope: Scope) -> Logic:
    """The reference for :func:`repro.hdl.eval.fold`: a constant
    expression's value, or the runtime's typed error for a variable
    read."""
    name = _variable_read(expr, scope)
    if name is not None:
        raise NotConstantError(f"{name!r} is not a constant")
    return eval_expr(expr, scope)


def const_int(expr: ast.Expr, scope: Scope) -> int:
    """The reference for :meth:`repro.hdl.elaborate.Scope.const_int`."""
    result = const_value(expr, scope).to_uint()
    if result is None:
        raise ElaborationError(
            f"expression is not a defined constant in {scope.prefix or 'top'}")
    return result


def _part_bounds(msb_expr: ast.Expr, lsb_expr: ast.Expr, name: str,
                 scope: Scope) -> tuple[int, int]:
    """Constant ``[msb:lsb]`` bounds of a part select or part store:
    reversed bounds, or a width past the cap, fail typed."""
    msb = const_int(msb_expr, scope)
    lsb = const_int(lsb_expr, scope)
    if msb < lsb:
        raise ElaborationError(f"reversed part select [{msb}:{lsb}] on {name}")
    check_width(msb - lsb + 1, "part select")
    return msb, lsb


def eval_expr(expr: ast.Expr, scope: Scope,
              ctx_width: int | None = None) -> Logic:
    """Evaluate ``expr`` in ``scope``.

    ``ctx_width`` is the assignment/expression context width used to widen
    context-determined operands (e.g. so ``{cout, s} = a + b`` keeps the
    carry bit).
    """
    if isinstance(expr, ast.Number):
        width = expr.width if expr.width is not None else 32
        return Logic(width, expr.val, expr.xmask)

    if isinstance(expr, ast.Identifier):
        return _read_name(scope, expr.name)

    if isinstance(expr, ast.StringLit):
        data = expr.text.encode("latin-1", "replace")
        val = int.from_bytes(data, "big") if data else 0
        return Logic(max(8 * len(data), 8), val, 0)

    if isinstance(expr, ast.Unary):
        return _eval_unary(expr, scope, ctx_width)

    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, scope, ctx_width)

    if isinstance(expr, ast.Ternary):
        w = max(width_of(expr, scope), ctx_width or 0)
        cond = eval_expr(expr.cond, scope).truth()
        if cond is True:
            return eval_expr(expr.then, scope, w).resize(
                w, signed_of(expr.then, scope))
        if cond is False:
            return eval_expr(expr.other, scope, w).resize(
                w, signed_of(expr.other, scope))
        # Unknown select: bitwise merge; agreeing bits survive.
        a = eval_expr(expr.then, scope, w).resize(w, signed_of(expr.then, scope))
        b = eval_expr(expr.other, scope, w).resize(w, signed_of(expr.other, scope))
        agree = ~(a.val ^ b.val) & ~a.xmask & ~b.xmask
        return Logic(w, a.val & agree, ((1 << w) - 1) & ~agree)

    if isinstance(expr, ast.Concat):
        parts = [eval_expr(p, scope) for p in expr.parts]
        check_width(sum(p.width for p in parts), "concatenation")
        return Logic.concat(parts)

    if isinstance(expr, ast.Replicate):
        count = const_int(expr.count, scope)
        if count < 1:
            raise SimulationError(f"replication count {count} must be >= 1")
        value = eval_expr(expr.value, scope)
        check_width(count * value.width, "replication")
        return value.replicate(count)

    if isinstance(expr, ast.Index):
        index = eval_expr(expr.index, scope)
        if scope.is_memory(expr.base):
            addr = index.to_uint()
            if addr is None:
                return Logic.unknown(scope.memory_width(expr.base))
            return scope.lookup(expr.base).read(addr)
        base = _read_name(scope, expr.base)
        idx = index.to_uint()
        if idx is None:
            return Logic.unknown(1)
        return base.bit(idx)

    if isinstance(expr, ast.PartSelect):
        base = _read_name(scope, expr.base)
        msb, lsb = _part_bounds(expr.msb, expr.lsb, expr.base, scope)
        return base.part(msb, lsb)

    if isinstance(expr, ast.SystemCall):
        return _eval_system_call(expr, scope)

    raise SimulationError(f"cannot evaluate expression {expr!r}")


def _eval_unary(expr: ast.Unary, scope: Scope,
                ctx_width: int | None) -> Logic:
    op = expr.op
    if op == "!":
        return eval_expr(expr.operand, scope).lnot()
    if op == "&":
        return eval_expr(expr.operand, scope).reduce_and()
    if op == "~&":
        return eval_expr(expr.operand, scope).reduce_nand()
    if op == "|":
        return eval_expr(expr.operand, scope).reduce_or()
    if op == "~|":
        return eval_expr(expr.operand, scope).reduce_nor()
    if op in ("^",):
        return eval_expr(expr.operand, scope).reduce_xor()
    if op in ("~^", "^~"):
        return eval_expr(expr.operand, scope).reduce_xnor()

    w = max(width_of(expr.operand, scope), ctx_width or 0)
    signed = signed_of(expr.operand, scope)
    value = eval_expr(expr.operand, scope, w).resize(w, signed)
    if op == "~":
        return value.bnot()
    if op == "-":
        return value.neg(w)
    if op == "+":
        return value
    raise SimulationError(f"unsupported unary operator {op!r}")


def _eval_binary(expr: ast.Binary, scope: Scope,
                 ctx_width: int | None) -> Logic:
    op = expr.op

    if op in _LOGICAL:
        left = eval_expr(expr.left, scope)
        right = eval_expr(expr.right, scope)
        return left.land(right) if op == "&&" else left.lor(right)

    if op in _COMPARE:
        w = max(width_of(expr.left, scope), width_of(expr.right, scope))
        signed = (signed_of(expr.left, scope)
                  and signed_of(expr.right, scope))
        left = eval_expr(expr.left, scope, w).resize(w, signed)
        right = eval_expr(expr.right, scope, w).resize(w, signed)
        if op == "==":
            return left.eq(right)
        if op == "!=":
            return left.neq(right)
        if op == "===":
            return left.case_eq(right)
        if op == "!==":
            return left.case_neq(right)
        if op == "<":
            return left.lt(right, signed)
        if op == "<=":
            return left.le(right, signed)
        if op == ">":
            return left.gt(right, signed)
        return left.ge(right, signed)

    if op in _SHIFTS:
        w = max(width_of(expr.left, scope), ctx_width or 0)
        signed = signed_of(expr.left, scope)
        left = eval_expr(expr.left, scope, w).resize(w, signed)
        amount = eval_expr(expr.right, scope)
        if op == "<<" or op == "<<<":
            return left.shl(amount, w)
        if op == ">>":
            return left.shr(amount, w)
        # Arithmetic right shift only fills sign when the value is signed.
        return left.ashr(amount, w) if signed else left.shr(amount, w)

    # Context-determined arithmetic / bitwise operators.
    if op in _CTX_ARITH:
        return _eval_arith_chain(_arith_chain(expr), scope, ctx_width)
    w = max(width_of(expr.left, scope), width_of(expr.right, scope),
            ctx_width or 0)
    both_signed = signed_of(expr.left, scope) and signed_of(expr.right,
                                                            scope)
    left = eval_expr(expr.left, scope, w).resize(w, both_signed)
    right = eval_expr(expr.right, scope, w).resize(w, both_signed)
    if op == "**":
        return left.pow(right, w)
    raise SimulationError(f"unsupported binary operator {op!r}")


def _eval_arith_chain(chain: Sequence[ast.Binary], scope: Scope,
                      ctx_width: int | None) -> Logic:
    """Evaluate a left-deep run of context-determined operators (see
    :func:`_arith_chain`; one operator is a run of one) in a loop."""
    w, boths = _chain_shape(chain, scope, ctx_width)
    value = eval_expr(chain[0].left, scope, w).resize(w, boths[0])
    for node, both in zip(chain, boths):
        right = eval_expr(node.right, scope, w).resize(w, both)
        op = node.op
        if op == "+":
            value = value.add(right, w)
        elif op == "-":
            value = value.sub(right, w)
        elif op == "*":
            value = value.mul(right, w)
        elif op == "/":
            value = value.div(right, w, both)
        elif op == "%":
            value = value.mod(right, w, both)
        elif op == "&":
            value = value.band(right)
        elif op == "|":
            value = value.bor(right)
        elif op == "^":
            value = value.bxor(right)
        else:  # "^~" / "~^"
            value = value.bxnor(right)
    return value


def _eval_system_call(expr: ast.SystemCall, scope: Scope) -> Logic:
    name = expr.name
    if name == "$time":
        return Logic.from_int(scope.design.runtime_time(), 64)
    if name == "$signed":
        return eval_expr(expr.args[0], scope)
    if name == "$unsigned":
        return eval_expr(expr.args[0], scope)
    if name in ("$random", "$urandom"):
        return Logic.from_int(scope.design.runtime_random(), 32)
    if name == "$clog2":
        value = eval_expr(expr.args[0], scope).to_uint()
        if value is None:
            return Logic.unknown(32)
        return Logic.from_int(max(value - 1, 0).bit_length(), 32)
    if name == "$fopen":
        filename = expr.args[0]
        if not isinstance(filename, ast.StringLit):
            raise SimulationError("$fopen expects a string literal")
        return Logic.from_int(scope.design.runtime_fopen(filename.text), 32)
    raise SimulationError(f"unsupported system function {name!r}")




def _port_bind_runner(spec: ProcSpec):
    """Drive a port-binding process's sink from its source."""
    direction, source, sink = spec.port_bind
    if direction == "in":
        return lambda sim: sim.set_signal(sink, eval_expr(
            source, spec.scope, sink.width).resize(sink.width))
    return lambda sim: sim.set_signal(sink, source.value.resize(sink.width))


class InterpretedSimulator(Simulator):
    """A :class:`Simulator` that interprets statements instead of
    running compiled programs."""

    def _instantiate(self, specs: Iterable[ProcSpec]) -> None:
        self._ff_enabled = False
        for spec in specs:
            if spec.kind == "comb":
                self._add_comb(spec, self._interp_comb_runner(spec))
                continue
            assert spec.body is not None
            gen = (self._exec(spec.body, spec.scope)
                   if spec.kind == "initial" else self._always_gen(spec))
            proc = Process(spec.label, gen)
            self._processes.append(proc)
            self.active.append(proc)

    def _interp_comb_runner(self, spec: ProcSpec):
        if spec.port_bind is not None:
            return _port_bind_runner(spec)
        body, scope = spec.body, spec.scope
        assert body is not None

        def runner(sim, _body=body, _scope=scope):
            gen = sim._exec(_body, _scope)
            for _ in gen:
                raise SimulationError(
                    "delay/event control inside combinational block "
                    f"{spec.label!r}")
        return runner

    def _always_gen(self, spec: ProcSpec):
        events = spec.events or ()
        resolved = self._resolve_events(events, spec.scope) if events else ()
        while True:
            if resolved:
                yield ("wait", resolved)
            yield from self._exec(spec.body, spec.scope)

    def _resolve_events(self, events: tuple[ast.EventExpr, ...],
                        scope: Scope) -> tuple[tuple[str, Signal], ...]:
        resolved = []
        for ev in events:
            if not isinstance(ev.signal, ast.Identifier):
                raise SimulationError(
                    "event controls must reference simple signals")
            obj = scope.lookup(ev.signal.name)
            if not isinstance(obj, Signal):
                raise SimulationError(
                    f"cannot wait on {ev.signal.name!r}")
            resolved.append((ev.edge, obj))
        return tuple(resolved)

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _assign(self, target: ast.LValue, value: Logic, scope: Scope) -> None:
        if isinstance(target, ast.LvIdent):
            obj = scope.lookup(target.name)
            if isinstance(obj, Signal):
                self.set_signal(obj, value.resize(obj.width))
                return
            raise SimulationError(f"cannot assign to {target.name!r}")
        if isinstance(target, ast.LvIndex):
            obj = scope.lookup(target.name)
            index = eval_expr(target.index, scope).to_uint()
            if index is None:
                return  # write to unknown index is discarded
            if isinstance(obj, Memory):
                self.write_memory(obj, index, value)
                return
            if isinstance(obj, Signal):
                if index >= obj.width:
                    return
                self.set_signal(
                    obj, obj.value.set_part(index, index, value.resize(1)))
                return
            raise SimulationError(f"cannot assign to {target.name!r}")
        if isinstance(target, ast.LvPart):
            obj = scope.lookup(target.name)
            if not isinstance(obj, Signal):
                raise SimulationError(f"cannot assign to {target.name!r}")
            msb = const_int(target.msb, scope)
            lsb = const_int(target.lsb, scope)
            self.set_signal(obj, obj.value.set_part(msb, lsb, value))
            return
        if isinstance(target, ast.LvConcat):
            offset = 0
            for part in reversed(target.parts):
                w = self._lvalue_width(part, scope)
                self._assign(part, value.part(offset + w - 1, offset), scope)
                offset += w
            return
        raise SimulationError(f"unsupported lvalue {target!r}")

    def _lvalue_width(self, target: ast.LValue, scope: Scope) -> int:
        if isinstance(target, ast.LvIdent):
            obj = scope.lookup(target.name)
            if isinstance(obj, Signal):
                return obj.width
            raise SimulationError(f"cannot size lvalue {target.name!r}")
        if isinstance(target, ast.LvIndex):
            obj = scope.lookup(target.name)
            if isinstance(obj, Memory):
                return obj.width
            return 1
        if isinstance(target, ast.LvPart):
            msb, lsb = _part_bounds(target.msb, target.lsb, target.name,
                                    scope)
            return msb - lsb + 1
        if isinstance(target, ast.LvConcat):
            return sum(self._lvalue_width(p, scope) for p in target.parts)
        raise SimulationError(f"unsupported lvalue {target!r}")

    def _schedule_nba(self, target: ast.LValue, value: Logic,
                      scope: Scope) -> None:
        """Resolve the lvalue address now, apply the value in the NBA region."""
        if isinstance(target, ast.LvIdent):
            obj = scope.lookup(target.name)
            if isinstance(obj, Signal):
                self.nba.append(("sig", obj, value.resize(obj.width)))
                return
            raise SimulationError(f"cannot assign to {target.name!r}")
        if isinstance(target, ast.LvIndex):
            obj = scope.lookup(target.name)
            index = eval_expr(target.index, scope).to_uint()
            if index is None:
                return
            if isinstance(obj, Memory):
                self.nba.append(("mem", obj, index, value))
                return
            if isinstance(obj, Signal):
                self.nba.append(("part", obj, index, index, value.resize(1)))
                return
            raise SimulationError(f"cannot assign to {target.name!r}")
        if isinstance(target, ast.LvPart):
            obj = scope.lookup(target.name)
            if not isinstance(obj, Signal):
                raise SimulationError(f"cannot assign to {target.name!r}")
            msb = const_int(target.msb, scope)
            lsb = const_int(target.lsb, scope)
            self.nba.append(("part", obj, msb, lsb, value))
            return
        if isinstance(target, ast.LvConcat):
            offset = 0
            for part in reversed(target.parts):
                w = self._lvalue_width(part, scope)
                self._schedule_nba(part, value.part(offset + w - 1, offset),
                                   scope)
                offset += w
            return
        raise SimulationError(f"unsupported lvalue {target!r}")

    # ------------------------------------------------------------------
    # Statement execution (generator)
    # ------------------------------------------------------------------
    def _exec(self, stmt: ast.Stmt, scope: Scope):
        self._tick()

        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                yield from self._exec(s, scope)
            return

        if isinstance(stmt, ast.BlockingAssign):
            width = self._lvalue_width(stmt.target, scope)
            value = eval_expr(stmt.value, scope, width)
            value = value.resize(width, signed_of(stmt.value, scope))
            self._assign(stmt.target, value, scope)
            return

        if isinstance(stmt, ast.NonblockingAssign):
            width = self._lvalue_width(stmt.target, scope)
            value = eval_expr(stmt.value, scope, width)
            value = value.resize(width, signed_of(stmt.value, scope))
            self._schedule_nba(stmt.target, value, scope)
            return

        if isinstance(stmt, ast.If):
            if eval_expr(stmt.cond, scope).truth() is True:
                yield from self._exec(stmt.then, scope)
            elif stmt.other is not None:
                yield from self._exec(stmt.other, scope)
            return

        if isinstance(stmt, ast.Case):
            yield from self._exec_case(stmt, scope)
            return

        if isinstance(stmt, ast.For):
            yield from self._exec(stmt.init, scope)
            while eval_expr(stmt.cond, scope).truth() is True:
                yield from self._exec(stmt.body, scope)
                yield from self._exec(stmt.step, scope)
            return

        if isinstance(stmt, ast.While):
            while eval_expr(stmt.cond, scope).truth() is True:
                self._tick()
                yield from self._exec(stmt.body, scope)
            return

        if isinstance(stmt, ast.Repeat):
            count = eval_expr(stmt.count, scope).to_uint() or 0
            for _ in range(count):
                yield from self._exec(stmt.body, scope)
            return

        if isinstance(stmt, ast.Forever):
            while True:
                self._tick()
                yield from self._exec(stmt.body, scope)

        if isinstance(stmt, ast.DelayStmt):
            amount = eval_expr(stmt.amount, scope).to_uint()
            if amount is None:
                raise SimulationError("delay amount is unknown (x)")
            yield ("delay", amount)
            if stmt.stmt is not None:
                yield from self._exec(stmt.stmt, scope)
            return

        if isinstance(stmt, ast.EventControl):
            if stmt.events is None:
                raise SimulationError(
                    "@(*) is not supported as a procedural statement")
            yield ("wait", self._resolve_events(stmt.events, scope))
            if stmt.stmt is not None:
                yield from self._exec(stmt.stmt, scope)
            return

        if isinstance(stmt, ast.SysTaskCall):
            self._sys_task(stmt, scope)
            return

        if isinstance(stmt, ast.NullStmt):
            return

        raise SimulationError(f"cannot execute statement {stmt!r}")

    def _exec_case(self, stmt: ast.Case, scope: Scope):
        subject = eval_expr(stmt.subject, scope)
        default: ast.Stmt | None = None
        for item in stmt.items:
            if not item.labels:
                default = item.body
                continue
            for label_expr in item.labels:
                label = eval_expr(label_expr, scope)
                if case_match(stmt.kind, subject, label):
                    yield from self._exec(item.body, scope)
                    return
        if default is not None:
            yield from self._exec(default, scope)

    # ------------------------------------------------------------------
    # System tasks
    # ------------------------------------------------------------------
    def _sys_task(self, stmt: ast.SysTaskCall, scope: Scope) -> None:
        name = stmt.name
        if name in ("$finish", "$stop"):
            raise FinishRequest()
        if name == "$display":
            self.stdout.append(self._format_args(stmt.args, scope))
            return
        if name == "$write":
            # Collapsed into stdout lines; sufficient for testbench logs.
            self.stdout.append(self._format_args(stmt.args, scope))
            return
        if name in ("$fdisplay", "$fwrite"):
            if not stmt.args:
                raise SimulationError(f"{name} requires a descriptor")
            fd = eval_expr(stmt.args[0], scope).to_uint()
            if fd is None or fd not in self._fd_lines:
                raise SimulationError(f"{name}: invalid file descriptor")
            text = self._format_args(stmt.args[1:], scope)
            if name == "$fdisplay":
                line = self._fd_partial[fd] + text
                self._fd_partial[fd] = ""
                self._fd_lines[fd].append(line)
            else:
                self._fd_partial[fd] += text
            return
        if name == "$fclose":
            return
        if name in ("$dumpfile", "$dumpvars", "$timeformat", "$monitor",
                    "$fflush"):
            return
        raise SimulationError(f"unsupported system task {name!r}")

    def _format_args(self, args: tuple[ast.Expr, ...], scope: Scope) -> str:
        if not args:
            return ""
        first = args[0]
        if isinstance(first, ast.StringLit):
            return self._format(first.text, args[1:], scope)
        return " ".join(
            eval_expr(a, scope).format_decimal() for a in args)

    def _format(self, fmt: str, args: tuple[ast.Expr, ...],
                scope: Scope) -> str:
        out: list[str] = []
        arg_iter = iter(args)
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
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
                out.append("%")
                continue
            try:
                arg = next(arg_iter)
            except StopIteration:
                raise SimulationError(
                    f"missing argument for %{spec} in {fmt!r}") from None
            value = eval_expr(arg, scope)
            if spec in ("d", "D"):
                out.append(value.format_decimal(
                    signed=signed_of(arg, scope)))
            elif spec in ("b", "B"):
                out.append(value.format_binary())
            elif spec in ("h", "H", "x", "X"):
                out.append(value.format_hex())
            elif spec in ("t", "T"):
                out.append(value.format_decimal())
            elif spec in ("c",):
                u = value.to_uint()
                out.append(chr(u & 0xFF) if u is not None else "x")
            elif spec in ("s", "S"):
                if isinstance(arg, ast.StringLit):
                    out.append(arg.text)
                else:
                    u = value.to_uint() or 0
                    raw = u.to_bytes((value.width + 7) // 8, "big")
                    out.append(raw.decode("latin-1").lstrip("\x00"))
            else:
                raise SimulationError(f"unsupported format %{spec}")
        return "".join(out)


def simulate_interpreted(sources: str | Iterable[str], top: str,
                         max_time: int | None = None,
                         max_stmts: int | None = None,
                         seed: int = 0) -> SimulationResult:
    """:func:`repro.hdl.simulate`, through the interpreter."""
    return InterpretedSimulator(compile_design(sources, top),
                                max_time=max_time, max_stmts=max_stmts,
                                seed=seed).run()
