"""Lockstep mutant-schemata unions: N same-interface DUT variants in
one design, one event loop, one run.

AutoEval's Eval2 and the validator's R/S matrices simulate dozens of
*variants of one design* against *one driver*.  The per-variant path
pays the shared driver's execution (clock generation, stimulus
sequencing, scheduler bookkeeping) once per variant; this module builds
a **union design** that pays it once per sweep:

- every lane's modules are renamed with a ``__ls<k>`` suffix (intra-lane
  instances follow), so N structurally-different variants of
  ``top_module`` coexist in one design;
- the driver's single DUT instance is replaced by N lane instances that
  share the input nets and drive per-lane output wires
  (``q``, ``q__ls1``, …);
- every dump ``$fdisplay`` is rewritten into **one widened statement**
  per check-point: shared fields (scenario counter, driven inputs)
  render once, and each output field renders as a delimiter-bracketed
  group of all N lane values.  The sweep
  (:func:`repro.core.simulation._demux_records`) rebuilds each lane's
  line from the shared literals and that lane's value in every group,
  the line a separate run would have written, and parses it.

The transform is AST-level and engine-agnostic: the union design runs
through the ordinary elaborate → compile → simulate pipeline, and the
renamed lane modules keep their original ``always``/``assign`` AST
nodes, so the shared slot-program cache reuses the exact programs the
per-variant path compiled.

The union is only *valid* when the driver observes the DUT exclusively
through dump ``$fdisplay`` statements — any other read of a DUT output
(a ``$display`` verdict, a checking ``if``, a continuous assign) would
see lane 0 only.  :func:`build_union` statically verifies this with
the front end's read walker (:func:`repro.hdl.eval.collect_expr_reads`,
which also looks inside system calls such as ``$signed(y)``) and
raises :exc:`LockstepUnsupported` otherwise; callers fall back to the
per-variant path, which stays the behavioural oracle (see the
lockstep-vs-per-mutant differential fuzz battery).
"""

from __future__ import annotations

from . import ast
from .compile import _format_segments
from .eval import _collect_lvalue_reads, collect_expr_reads
from .parser import parse_source_cached

#: Delimiters bracketing per-lane value groups inside a widened dump
#: line.  Control characters: they cannot appear in rendered numeric
#: fields, and a format string containing them is rejected up front.
GROUP_DELIM = "\x1d"
LANE_DELIM = "\x1c"

#: Format specs whose rendered output is delimiter-free (digits, hex
#: letters, ``x``/``z``, ``-``).  ``%c`` / ``%s`` can emit arbitrary
#: bytes, so formats using them on lane-divergent args are unsupported.
_SAFE_SPECS = frozenset("dDbBhHxXtT")

#: System tasks that write to stdout: shared driver state, so a driver
#: using any of them would report lane 0's values only.
_STDOUT_TASKS = frozenset(
    {"$display", "$write", "$monitor", "$strobe"})


class LockstepUnsupported(Exception):
    """The driver/DUT shape cannot be run as a lockstep union.

    Carries a short human-readable reason; callers are expected to fall
    back to the per-variant path.
    """


def lane_suffix(k: int) -> str:
    """The module/net rename suffix for lane ``k``."""
    return f"__ls{k}"


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------
def _subst_expr(expr, mapping: dict):
    """Rewrite identifier references per ``mapping``: name -> the one
    renamed :class:`~repro.hdl.ast.Identifier` that every rewritten
    reference in a union build shares."""
    if isinstance(expr, ast.Identifier):
        return mapping.get(expr.name, expr)
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _subst_expr(expr.operand, mapping))
    if isinstance(expr, ast.Binary):
        return ast.Binary(expr.op, _subst_expr(expr.left, mapping),
                          _subst_expr(expr.right, mapping))
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(_subst_expr(expr.cond, mapping),
                           _subst_expr(expr.then, mapping),
                           _subst_expr(expr.other, mapping))
    if isinstance(expr, ast.Concat):
        return ast.Concat(tuple(_subst_expr(p, mapping)
                                for p in expr.parts))
    if isinstance(expr, ast.Replicate):
        return ast.Replicate(_subst_expr(expr.count, mapping),
                             _subst_expr(expr.value, mapping))
    if isinstance(expr, ast.Index):
        return ast.Index(_renamed(expr.base, mapping),
                         _subst_expr(expr.index, mapping))
    if isinstance(expr, ast.PartSelect):
        return ast.PartSelect(_renamed(expr.base, mapping),
                              expr.msb, expr.lsb)
    if isinstance(expr, ast.SystemCall):
        return ast.SystemCall(expr.name, tuple(_subst_expr(a, mapping)
                                               for a in expr.args))
    return expr


def _renamed(name: str, mapping: dict) -> str:
    ident = mapping.get(name)
    return ident.name if ident is not None else name


def _expr_refs(expr, names: frozenset) -> bool:
    """Does ``expr`` read any identifier in ``names``?"""
    reads: set[str] = set()
    collect_expr_reads(expr, reads)
    return not names.isdisjoint(reads)


def _lvalue_refs(target, names: frozenset) -> bool:
    """Does ``target`` write, or read in a select, any name in
    ``names``?"""
    if isinstance(target, ast.LvConcat):
        return any(_lvalue_refs(p, names) for p in target.parts)
    reads: set[str] = set()
    _collect_lvalue_reads(target, reads)
    return target.name in names or not names.isdisjoint(reads)


def _events_ref(events, names: frozenset) -> bool:
    if not events:
        return False
    return any(_expr_refs(ev.signal, names) for ev in events)


# ----------------------------------------------------------------------
# Format widening
# ----------------------------------------------------------------------
def _widen_fdisplay(stmt: ast.SysTaskCall, n_lanes: int,
                    out_maps: list[dict],
                    out_names: frozenset) -> ast.SysTaskCall:
    """One dump ``$fdisplay`` -> one widened statement carrying every
    lane's output fields as delimiter-bracketed groups.

    The format is split by the compiler's own pre-scan, which drops
    width modifiers, so a rebuilt ``%d`` renders as the original ``%0d``
    did; a format the compiler rejects raises its ``SimulationError``.
    """
    fmt = stmt.args[1].text
    if GROUP_DELIM in fmt or LANE_DELIM in fmt:
        raise LockstepUnsupported("group delimiter in dump format")
    _reject_out_refs((stmt.args[0],), out_names, "$fdisplay handle")
    arg_exprs = stmt.args[2:]
    segments = _format_segments(fmt)
    if sum(1 for kind, _ in segments if kind == "arg") != len(arg_exprs):
        raise LockstepUnsupported("dump format/argument count mismatch")

    fmt_parts: list[str] = []
    args: list = [stmt.args[0]]
    j = 0
    for kind, payload in segments:
        if kind == "lit":
            fmt_parts.append(payload.replace("%", "%%"))
            continue
        expr = arg_exprs[j]
        j += 1
        spec = "%" + payload
        if not _expr_refs(expr, out_names):
            fmt_parts.append(spec)
            args.append(expr)
            continue
        if payload not in _SAFE_SPECS:
            raise LockstepUnsupported(
                f"%{payload} on a DUT output in a dump format")
        fmt_parts.append(GROUP_DELIM + spec
                         + (LANE_DELIM + spec) * (n_lanes - 1)
                         + GROUP_DELIM)
        for k in range(n_lanes):
            args.append(_subst_expr(expr, out_maps[k]))
    return ast.SysTaskCall(
        stmt.name,
        (args[0], ast.StringLit("".join(fmt_parts))) + tuple(args[1:]))


def _is_dump_fdisplay(stmt) -> bool:
    return (isinstance(stmt, ast.SysTaskCall)
            and stmt.name == "$fdisplay"
            and len(stmt.args) >= 2
            and isinstance(stmt.args[1], ast.StringLit))


# ----------------------------------------------------------------------
# Statement transform + static validation
# ----------------------------------------------------------------------
def _reject_out_refs(exprs, out_names: frozenset, where: str) -> None:
    for expr in exprs:
        if _expr_refs(expr, out_names):
            raise LockstepUnsupported(
                f"DUT output read outside a dump $fdisplay ({where})")


def _transform_stmt(stmt, n_lanes: int, out_maps: list[dict],
                    out_names: frozenset, memo: dict):
    """Widen dump ``$fdisplay`` statements; verify nothing else in the
    driver reads a DUT output.

    ``memo`` maps each statement already transformed in this union build
    to its result.  The parser shares a driver's repeated statements, so
    a dump line repeated in every scenario widens once, and the union
    shares the widened statement in turn.
    """
    if stmt is None:
        return None
    done = memo.get(stmt)
    if done is None:
        done = memo[stmt] = _transform_new(stmt, n_lanes, out_maps,
                                           out_names, memo)
    return done


def _transform_new(stmt, n_lanes: int, out_maps: list[dict],
                   out_names: frozenset, memo: dict):
    if _is_dump_fdisplay(stmt):
        return _widen_fdisplay(stmt, n_lanes, out_maps, out_names)
    if isinstance(stmt, ast.SysTaskCall):
        if stmt.name in _STDOUT_TASKS:
            raise LockstepUnsupported(
                f"{stmt.name} in the driver (stdout is shared)")
        _reject_out_refs(stmt.args, out_names, stmt.name)
        return stmt
    if isinstance(stmt, ast.Block):
        return ast.Block(
            tuple(_transform_stmt(s, n_lanes, out_maps, out_names, memo)
                  for s in stmt.stmts), stmt.name)
    if isinstance(stmt, ast.If):
        _reject_out_refs((stmt.cond,), out_names, "if condition")
        return ast.If(stmt.cond,
                      _transform_stmt(stmt.then, n_lanes, out_maps,
                                      out_names, memo),
                      _transform_stmt(stmt.other, n_lanes, out_maps,
                                      out_names, memo))
    if isinstance(stmt, ast.Case):
        _reject_out_refs((stmt.subject,), out_names, "case subject")
        items = []
        for item in stmt.items:
            _reject_out_refs(item.labels, out_names, "case label")
            items.append(ast.CaseItem(
                item.labels,
                _transform_stmt(item.body, n_lanes, out_maps,
                                out_names, memo)))
        return ast.Case(stmt.kind, stmt.subject, tuple(items))
    if isinstance(stmt, ast.DelayStmt):
        _reject_out_refs((stmt.amount,), out_names, "delay amount")
        return ast.DelayStmt(
            stmt.amount,
            _transform_stmt(stmt.stmt, n_lanes, out_maps, out_names, memo))
    if isinstance(stmt, ast.EventControl):
        if _events_ref(stmt.events, out_names):
            raise LockstepUnsupported("event control on a DUT output")
        return ast.EventControl(
            stmt.events,
            _transform_stmt(stmt.stmt, n_lanes, out_maps, out_names, memo))
    if isinstance(stmt, ast.For):
        _reject_out_refs((stmt.init.value, stmt.cond, stmt.step.value),
                         out_names, "for loop")
        return ast.For(stmt.init, stmt.cond, stmt.step,
                       _transform_stmt(stmt.body, n_lanes, out_maps,
                                       out_names, memo))
    if isinstance(stmt, ast.While):
        _reject_out_refs((stmt.cond,), out_names, "while condition")
        return ast.While(stmt.cond,
                         _transform_stmt(stmt.body, n_lanes, out_maps,
                                         out_names, memo))
    if isinstance(stmt, ast.Repeat):
        _reject_out_refs((stmt.count,), out_names, "repeat count")
        return ast.Repeat(stmt.count,
                          _transform_stmt(stmt.body, n_lanes, out_maps,
                                          out_names, memo))
    if isinstance(stmt, ast.Forever):
        return ast.Forever(_transform_stmt(stmt.body, n_lanes, out_maps,
                                           out_names, memo))
    if isinstance(stmt, (ast.BlockingAssign, ast.NonblockingAssign)):
        if (_expr_refs(stmt.value, out_names)
                or _lvalue_refs(stmt.target, out_names)):
            raise LockstepUnsupported(
                "DUT output read outside a dump $fdisplay (assignment)")
        return stmt
    return stmt


# ----------------------------------------------------------------------
# Lane-module renaming
# ----------------------------------------------------------------------
def _rename_lane_modules(src_file: ast.SourceFile,
                         k: int) -> tuple[ast.Module, ...]:
    names = {m.name for m in src_file.modules}
    return tuple(
        ast.Module(
            mod.name + lane_suffix(k), mod.ports,
            tuple(ast.Instance(item.module + lane_suffix(k), item.name,
                               item.connections, item.parameters)
                  if (isinstance(item, ast.Instance)
                      and item.module in names)
                  else item
                  for item in mod.items))
        for mod in src_file.modules)


# ----------------------------------------------------------------------
# Union construction
# ----------------------------------------------------------------------
def _check_lane_interfaces(lane_asts, dut_module: str) -> None:
    reference = None
    for k, lane in enumerate(lane_asts):
        try:
            module = lane.module(dut_module)
        except KeyError:
            raise LockstepUnsupported(
                f"lane {k} has no module {dut_module!r}") from None
        shape = tuple((p.direction, p.name) for p in module.ports)
        if any(direction == "inout" for direction, _ in shape):
            raise LockstepUnsupported("inout ports are unsupported")
        if reference is None:
            reference = shape
        elif shape != reference:
            raise LockstepUnsupported(
                f"lane {k} port interface differs from lane 0")


def reject_random_lanes(lane_srcs) -> None:
    """Raise :exc:`LockstepUnsupported` if any lane's text names
    ``$random`` or ``$urandom``.  The check reads the text, comments
    included, so it must see every lane's own text, not a stand-in for
    an equal tree."""
    for src in lane_srcs:
        if "$random" in src or "$urandom" in src:
            raise LockstepUnsupported("$random in a DUT lane")


def build_union(driver_src: str, lane_srcs: list[str],
                dut_module: str = "top_module",
                top: str = "tb") -> ast.SourceFile:
    """Merge a driver and N same-interface DUT variants into one design.

    Raises :exc:`LockstepUnsupported` when the shapes cannot be merged
    faithfully (see the module docstring); syntax errors in any source
    propagate as :exc:`~repro.hdl.errors.VerilogSyntaxError`.
    """
    if not lane_srcs:
        raise LockstepUnsupported("no lanes")
    reject_random_lanes(lane_srcs)
    driver_ast = parse_source_cached(driver_src)
    lane_asts = [parse_source_cached(src) for src in lane_srcs]
    n_lanes = len(lane_srcs)

    try:
        tb = driver_ast.module(top)
    except KeyError:
        raise LockstepUnsupported(
            f"driver has no module {top!r}") from None
    _check_lane_interfaces(lane_asts, dut_module)
    out_ports = {p.name for p in lane_asts[0].module(dut_module).ports
                 if p.direction == "output"}

    instances = [item for item in tb.items
                 if isinstance(item, ast.Instance)
                 and item.module == dut_module]
    if len(instances) != 1:
        raise LockstepUnsupported(
            f"driver instantiates {dut_module!r} {len(instances)} times")
    inst = instances[0]

    out_wires: set[str] = set()
    for pname, expr in inst.connections:
        if pname is None:
            raise LockstepUnsupported("positional DUT port connection")
        if pname in out_ports:
            if not isinstance(expr, ast.Identifier):
                raise LockstepUnsupported(
                    f"output port .{pname} bound to a non-identifier")
            out_wires.add(expr.name)
    out_names = frozenset(out_wires)
    out_maps: list[dict] = [
        {} if k == 0 else {w: ast.Identifier(w + lane_suffix(k))
                           for w in out_names}
        for k in range(n_lanes)]
    memo: dict = {}

    # Per-lane output wire declarations mirror the driver's originals.
    wire_shapes: dict[str, tuple] = {}
    new_items: list[ast.ModuleItem] = []
    for item in tb.items:
        if item is inst:
            new_items.append(item)  # placeholder, replaced below
            continue
        if isinstance(item, ast.NetDecl):
            for name, init in zip(item.names, item.inits):
                if name in out_names:
                    if init is not None:
                        raise LockstepUnsupported(
                            "initialized DUT output wire")
                    wire_shapes[name] = (item.range, item.signed)
            _reject_out_refs((i for i in item.inits if i is not None),
                             out_names, "net initializer")
            new_items.append(item)
            continue
        if isinstance(item, ast.InitialBlock):
            new_items.append(ast.InitialBlock(_transform_stmt(
                item.body, n_lanes, out_maps, out_names, memo)))
            continue
        if isinstance(item, ast.AlwaysBlock):
            if _events_ref(item.events, out_names):
                raise LockstepUnsupported(
                    "always block sensitive to a DUT output")
            new_items.append(ast.AlwaysBlock(item.events, _transform_stmt(
                item.body, n_lanes, out_maps, out_names, memo)))
            continue
        if isinstance(item, ast.ContinuousAssign):
            if (_expr_refs(item.value, out_names)
                    or _lvalue_refs(item.target, out_names)):
                raise LockstepUnsupported(
                    "continuous assign reads a DUT output")
            new_items.append(item)
            continue
        if isinstance(item, ast.Instance):
            _reject_out_refs((expr for _, expr in item.connections
                              if expr is not None),
                             out_names, f"instance {item.name}")
            new_items.append(item)
            continue
        new_items.append(item)

    missing = out_names - set(wire_shapes)
    if missing:
        raise LockstepUnsupported(
            f"undeclared DUT output wires: {sorted(missing)}")

    index = new_items.index(inst)
    lane_instances = []
    for k in range(n_lanes):
        connections = tuple(
            (pname,
             _subst_expr(expr, out_maps[k]) if expr is not None else None)
            for pname, expr in inst.connections)
        lane_instances.append(ast.Instance(
            dut_module + lane_suffix(k), inst.name + lane_suffix(k),
            connections, inst.parameters))
    new_items[index:index + 1] = lane_instances

    declarations: list[ast.ModuleItem] = []
    for k in range(1, n_lanes):
        for name in sorted(out_names):
            rng, signed = wire_shapes[name]
            declarations.append(ast.NetDecl(
                "wire", (name + lane_suffix(k),), rng, signed, None,
                (None,)))

    union_tb = ast.Module(top, tb.ports,
                          tuple(declarations) + tuple(new_items))

    driver_names = {m.name for m in driver_ast.modules}
    modules: list[ast.Module] = []
    for k, lane_ast in enumerate(lane_asts):
        for module in _rename_lane_modules(lane_ast, k):
            if module.name in driver_names:
                raise LockstepUnsupported(
                    f"module name collision: {module.name}")
            modules.append(module)
    modules.append(union_tb)
    for module in driver_ast.modules:
        if module.name != top:
            modules.append(module)
    return ast.SourceFile(tuple(modules))
