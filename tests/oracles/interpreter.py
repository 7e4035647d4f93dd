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

It never fast-forwards: with no periodic-state skipping, a runaway run
ticks every time step, which is what makes it a reference for the
compiled kernel's fast-forward.
"""

from __future__ import annotations

from typing import Iterable

from repro.hdl import ast
from repro.hdl.elaborate import Memory, ProcSpec, Scope, Signal
from repro.hdl.errors import FinishRequest, SimulationError
from repro.hdl.eval import case_match, eval_expr, signed_of
from repro.hdl.logic import Logic
from repro.hdl.simulator import (Process, SimulationResult, Simulator,
                                 compile_design)


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
        if spec.pyfunc is not None:
            return spec.pyfunc
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
            msb = scope.const_int(target.msb)
            lsb = scope.const_int(target.lsb)
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
            msb = scope.const_int(target.msb)
            lsb = scope.const_int(target.lsb)
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
            msb = scope.const_int(target.msb)
            lsb = scope.const_int(target.lsb)
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
