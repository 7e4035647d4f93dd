"""Design elaboration: modules + instances -> flat signals and processes.

Elaboration resolves parameters, computes signal widths, flattens the
instance hierarchy (hierarchical names use ``.`` separators) and turns
every behavioural construct into a :class:`ProcSpec` the simulator can
schedule.  Port connections become dedicated combinational binding
processes, which gives plain wire semantics without a net-resolution pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import ast
from .errors import ElaborationError
from .eval import (MAX_SIGNAL_WIDTH, collect_expr_reads, collect_stmt_reads,
                   eval_expr)
from .logic import Logic

MAX_MEMORY_WORDS = 1 << 20


class Signal:
    """A flattened net or variable with its current 4-state value.

    ``waiters`` and ``combs`` are per-run scheduler state: the event
    tokens of suspended processes and the combinational processes whose
    read set includes this signal.  The simulator (re)binds both at
    instantiation time; keeping them on the signal avoids a dict lookup
    on every value change.
    """

    __slots__ = ("name", "width", "signed", "kind", "value", "waiters",
                 "combs")

    def __init__(self, name: str, width: int, signed: bool = False,
                 kind: str = "wire"):
        if width < 1 or width > MAX_SIGNAL_WIDTH:
            raise ElaborationError(
                f"signal {name!r} has unsupported width {width}")
        self.name = name
        self.width = width
        self.signed = signed
        self.kind = kind
        self.value = Logic.unknown(width)
        self.waiters: list = []   # list[WaitToken]
        self.combs: list | None = None  # list[CombProcess], set per run

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name}, {self.width}, {self.value.bits()})"


class Memory:
    """A 1-D unpacked array of words (register files, small RAMs)."""

    __slots__ = ("name", "width", "signed", "lo", "hi", "words", "waiters",
                 "combs")

    def __init__(self, name: str, width: int, lo: int, hi: int,
                 signed: bool = False):
        if hi < lo:
            lo, hi = hi, lo
        if hi - lo + 1 > MAX_MEMORY_WORDS:
            raise ElaborationError(f"memory {name!r} too large")
        self.name = name
        self.width = width
        self.signed = signed
        self.lo = lo
        self.hi = hi
        self.words = [Logic.unknown(width) for _ in range(hi - lo + 1)]
        self.waiters: list = []
        self.combs: list | None = None  # list[CombProcess], set per run

    def read(self, addr: int) -> Logic:
        if addr < self.lo or addr > self.hi:
            return Logic.unknown(self.width)
        return self.words[addr - self.lo]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Memory({self.name}, {self.width}x{len(self.words)})"


@dataclass
class ProcSpec:
    """A schedulable process produced by elaboration.

    ``kind`` is one of:

    ``initial``
        runs once from time zero.
    ``always``
        the body re-runs forever; explicit event controls/delays inside the
        body (or an ``events`` sensitivity list) provide suspension points.
    ``comb``
        combinational processes (continuous assignments, ``always @(*)`` and
        port bindings); re-evaluated whenever a signal in ``reads`` changes,
        plus once at time zero.

    ``port_bind`` carries the structured form of a port-binding process
    (``("in", expr, child_signal)`` / ``("out", child_signal,
    parent_signal)``) so the compile pass can lower it without the
    ``pyfunc`` interpreter fallback.  ``compiled`` caches the *bound*
    :class:`~repro.hdl.compile.CompiledProc` for this spec (the shared
    slot-indexed program plus this elaboration's frame); it lives on the
    spec so every simulation of the same elaborated design reuses it.
    """
    kind: str
    scope: "Scope"
    body: Optional[ast.Stmt] = None
    events: Optional[tuple[ast.EventExpr, ...]] = None
    pyfunc: Optional[Callable] = None
    reads: tuple[object, ...] = ()
    label: str = ""
    port_bind: Optional[tuple] = None
    compiled: Optional[object] = field(default=None, repr=False,
                                       compare=False)


class Scope:
    """Name resolution for one elaborated module instance."""

    def __init__(self, design: "Design", prefix: str):
        self.design = design
        self.prefix = prefix
        self.names: dict[str, object] = {}   # Signal | Memory | Logic(const)

    # -- declaration ---------------------------------------------------
    def declare(self, name: str, obj: object) -> None:
        if name in self.names:
            raise ElaborationError(
                f"duplicate declaration of {name!r} in {self.prefix or 'top'}")
        self.names[name] = obj

    def lookup(self, name: str) -> object:
        try:
            return self.names[name]
        except KeyError:
            raise ElaborationError(
                f"unknown identifier {name!r} in {self.prefix or 'top'}") from None

    # -- queries used by the evaluator ----------------------------------
    def width_of_name(self, name: str) -> int:
        obj = self.lookup(name)
        if isinstance(obj, Signal):
            return obj.width
        if isinstance(obj, Logic):
            return obj.width
        if isinstance(obj, Memory):
            raise ElaborationError(
                f"memory {name!r} used without an index")
        raise ElaborationError(f"cannot size {name!r}")

    def signed_of_name(self, name: str) -> bool:
        obj = self.lookup(name)
        if isinstance(obj, (Signal, Memory)):
            return obj.signed
        return False

    def is_memory(self, name: str) -> bool:
        return isinstance(self.names.get(name), Memory)

    def memory_width(self, name: str) -> int:
        obj = self.lookup(name)
        assert isinstance(obj, Memory)
        return obj.width

    def read_name(self, name: str) -> Logic:
        obj = self.lookup(name)
        if isinstance(obj, Signal):
            return obj.value
        if isinstance(obj, Logic):
            return obj
        raise ElaborationError(f"cannot read {name!r} as a value")

    def read_memory(self, name: str, addr: int) -> Logic:
        obj = self.lookup(name)
        assert isinstance(obj, Memory)
        return obj.read(addr)

    def const_int(self, expr: ast.Expr) -> int:
        """Evaluate an elaboration-time constant to a Python int."""
        value = eval_expr(expr, self)
        result = value.to_uint()
        if result is None:
            raise ElaborationError(
                f"expression is not a defined constant in {self.prefix or 'top'}")
        return result

    # -- runtime hooks (rebound by the simulator) ------------------------
    def sim_time(self) -> int:
        return self.design.runtime_time()

    def sim_random(self) -> int:
        return self.design.runtime_random()

    def sim_fopen(self, filename: str) -> int:
        return self.design.runtime_fopen(filename)


@dataclass
class Design:
    """A fully elaborated, flattened design ready for simulation."""
    top: str
    signals: dict[str, Signal] = field(default_factory=dict)
    memories: dict[str, Memory] = field(default_factory=dict)
    processes: list[ProcSpec] = field(default_factory=list)

    # The simulator installs these hooks before running.
    runtime_time: Callable[[], int] = lambda: 0
    runtime_random: Callable[[], int] = lambda: 0
    runtime_fopen: Callable[[str], int] = lambda name: 0

    def signal(self, hier_name: str) -> Signal:
        try:
            return self.signals[hier_name]
        except KeyError:
            raise KeyError(
                f"no signal {hier_name!r}; known: "
                f"{sorted(self.signals)[:20]}") from None


class Elaborator:
    def __init__(self, source: ast.SourceFile):
        self.modules = {m.name: m for m in source.modules}

    def elaborate(self, top: str) -> Design:
        if top not in self.modules:
            raise ElaborationError(f"top module {top!r} not found")
        design = Design(top=top)
        self._elaborate_module(design, self.modules[top], prefix="",
                               param_overrides={}, depth=0)
        return design

    # ------------------------------------------------------------------
    def _elaborate_module(self, design: Design, module: ast.Module,
                          prefix: str, param_overrides: dict[str, Logic],
                          depth: int,
                          port_aliases: dict[str, Signal] | None = None,
                          ) -> Scope:
        if depth > 32:
            raise ElaborationError("instance hierarchy too deep (recursion?)")
        scope = Scope(design, prefix)

        # Parameters first: ranges may reference them.
        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                if not item.local and item.name in param_overrides:
                    scope.declare(item.name, param_overrides[item.name])
                else:
                    scope.declare(item.name, eval_expr(item.value, scope))

        # Ports.  A port whose connection is a plain same-width,
        # same-signedness parent net is *aliased*: the child scope shares
        # the parent's Signal object, so no binding process (and no extra
        # delta hop) is needed for it.  This must happen before the rest
        # of the module elaborates — combinational read sets capture
        # Signal objects eagerly.
        declared_ports: dict[str, Signal] = {}
        for port in module.ports:
            if port.direction == "inout":
                raise ElaborationError(
                    f"inout port {port.name!r} is not supported")
            width = self._range_width(port.range, scope)
            alias = port_aliases.get(port.name) if port_aliases else None
            if (alias is not None and alias.width == width
                    and alias.signed == port.signed):
                design.signals[f"{prefix}{port.name}"] = alias
                scope.declare(port.name, alias)
                declared_ports[port.name] = alias
                continue
            sig = self._new_signal(design, scope, port.name, width,
                                   port.signed, "reg" if port.is_reg else "wire")
            declared_ports[port.name] = sig

        # Net/reg declarations (may refine existing port declarations).
        for item in module.items:
            if isinstance(item, ast.NetDecl):
                self._declare_nets(design, scope, item, declared_ports)

        # Behavioural items.
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                self._add_cont_assign(design, scope, item)
            elif isinstance(item, ast.AlwaysBlock):
                self._add_always(design, scope, item)
            elif isinstance(item, ast.InitialBlock):
                design.processes.append(ProcSpec(
                    kind="initial", scope=scope, body=item.body,
                    label=f"{prefix}initial"))
            elif isinstance(item, ast.Instance):
                self._elaborate_instance(design, scope, module, item,
                                         prefix, depth)
        return scope

    # ------------------------------------------------------------------
    def _range_width(self, rng: Optional[ast.Range], scope: Scope) -> int:
        if rng is None:
            return 1
        msb = scope.const_int(rng.msb)
        lsb = scope.const_int(rng.lsb)
        if lsb != 0:
            raise ElaborationError(
                f"only [N:0] ranges are supported, got [{msb}:{lsb}]")
        return msb - lsb + 1

    def _new_signal(self, design: Design, scope: Scope, name: str,
                    width: int, signed: bool, kind: str) -> Signal:
        hier = f"{scope.prefix}{name}"
        sig = Signal(hier, width, signed, kind)
        design.signals[hier] = sig
        scope.declare(name, sig)
        return sig

    def _declare_nets(self, design: Design, scope: Scope, item: ast.NetDecl,
                      ports: dict[str, Signal]) -> None:
        if item.kind == "integer":
            width, signed = 32, True
        else:
            width = self._range_width(item.range, scope)
            signed = item.signed

        for name, init in zip(item.names, item.inits):
            if item.array is not None:
                lo = scope.const_int(item.array.lsb)
                hi = scope.const_int(item.array.msb)
                hier = f"{scope.prefix}{name}"
                mem = Memory(hier, width, min(lo, hi), max(lo, hi), signed)
                design.memories[hier] = mem
                scope.declare(name, mem)
                continue
            if name in ports:
                # Redeclaration of a port ('output q; reg q;'): refine kind,
                # check width compatibility.
                sig = ports[name]
                if item.range is not None and sig.width != width:
                    raise ElaborationError(
                        f"port {name!r} redeclared with width {width}, "
                        f"expected {sig.width}")
                if item.kind == "reg":
                    sig.kind = "reg"
                if init is not None:
                    sig.value = eval_expr(init, scope).resize(sig.width)
                continue
            sig = self._new_signal(design, scope, name, width, signed,
                                   item.kind)
            if init is not None:
                if item.kind == "wire":
                    # `wire w = expr;` is a continuous assignment
                    # (IEEE 1364 6.1.1), not a one-time initial value.
                    self._add_cont_assign(design, scope, ast.ContinuousAssign(
                        ast.LvIdent(name), init))
                else:
                    sig.value = eval_expr(init, scope).resize(width)

    # ------------------------------------------------------------------
    def _resolve_reads(self, scope: Scope, names: set[str]) -> tuple:
        objs = []
        for name in sorted(names):
            obj = scope.names.get(name)
            if isinstance(obj, (Signal, Memory)):
                objs.append(obj)
        return tuple(objs)

    @staticmethod
    def _verify_names(scope: Scope, names: set[str], where: str) -> None:
        """Static name check so broken references fail at compile time
        (the Eval0 criterion), not at the first simulation event."""
        for name in sorted(names):
            if name not in scope.names:
                raise ElaborationError(
                    f"unknown identifier {name!r} in {where}")

    def _add_cont_assign(self, design: Design, scope: Scope,
                         item: ast.ContinuousAssign) -> None:
        reads: set[str] = set()
        collect_expr_reads(item.value, reads)
        self._verify_names(scope, reads,
                           f"{scope.prefix or 'top'} continuous assign")
        stmt = ast.BlockingAssign(item.target, item.value)
        if isinstance(item.target, ast.LvIndex):
            # Partial drivers read-modify-write the target.
            collect_expr_reads(item.target.index, reads)
        design.processes.append(ProcSpec(
            kind="comb", scope=scope, body=stmt,
            reads=self._resolve_reads(scope, reads),
            label=f"{scope.prefix}assign"))

    def _add_always(self, design: Design, scope: Scope,
                    item: ast.AlwaysBlock) -> None:
        body_reads: set[str] = set()
        collect_stmt_reads(item.body, body_reads)
        self._verify_names(scope, body_reads,
                           f"{scope.prefix or 'top'} always block")
        if item.events is None:
            # always @(*) — sensitivity is the static read set.
            reads: set[str] = set()
            collect_stmt_reads(item.body, reads)
            design.processes.append(ProcSpec(
                kind="comb", scope=scope, body=item.body,
                reads=self._resolve_reads(scope, reads),
                label=f"{scope.prefix}always_comb"))
            return
        if all(ev.edge == "any" for ev in item.events) and item.events:
            # Explicit combinational sensitivity list: treat like @(*) over
            # the listed signals (plus static reads keeps latches stable).
            reads = {ev.signal.name for ev in item.events
                     if isinstance(ev.signal, ast.Identifier)}
            design.processes.append(ProcSpec(
                kind="comb", scope=scope, body=item.body,
                reads=self._resolve_reads(scope, reads),
                label=f"{scope.prefix}always_list"))
            return
        design.processes.append(ProcSpec(
            kind="always", scope=scope, body=item.body, events=item.events,
            label=f"{scope.prefix}always"))

    # ------------------------------------------------------------------
    def _elaborate_instance(self, design: Design, parent: Scope,
                            parent_module: ast.Module, inst: ast.Instance,
                            prefix: str, depth: int) -> None:
        if inst.module not in self.modules:
            raise ElaborationError(
                f"unknown module {inst.module!r} instantiated as {inst.name!r}")
        child_module = self.modules[inst.module]
        overrides = {name: eval_expr(expr, parent)
                     for name, expr in inst.parameters}
        child_prefix = f"{prefix}{inst.name}."

        # Pair connections with ports.
        pairs: list[tuple[ast.Port, Optional[ast.Expr]]] = []
        if inst.connections and inst.connections[0][0] is None:
            if any(name is not None for name, _ in inst.connections):
                raise ElaborationError(
                    f"instance {inst.name!r} mixes positional and named "
                    "connections")
            if len(inst.connections) > len(child_module.ports):
                raise ElaborationError(
                    f"instance {inst.name!r} has too many connections")
            for port, (_, expr) in zip(child_module.ports, inst.connections):
                pairs.append((port, expr))
        else:
            by_name = {p.name: p for p in child_module.ports}
            seen = set()
            for pname, expr in inst.connections:
                if pname is None:
                    raise ElaborationError(
                        f"instance {inst.name!r} mixes positional and named "
                        "connections")
                if pname not in by_name:
                    raise ElaborationError(
                        f"instance {inst.name!r}: module {inst.module!r} has "
                        f"no port {pname!r}")
                if pname in seen:
                    raise ElaborationError(
                        f"instance {inst.name!r}: port {pname!r} connected "
                        "twice")
                seen.add(pname)
                pairs.append((by_name[pname], expr))

        # Alias candidates: connections that are plain parent nets.  The
        # final width/signedness check happens at port declaration time
        # (port widths may depend on the instance's parameter overrides).
        alias_candidates: dict[str, Signal] = {}
        for port, expr in pairs:
            if isinstance(expr, ast.Identifier):
                parent_obj = parent.names.get(expr.name)
                if isinstance(parent_obj, Signal):
                    alias_candidates[port.name] = parent_obj

        child_scope = self._elaborate_module(
            design, child_module, child_prefix, overrides, depth + 1,
            port_aliases=alias_candidates)

        for port, expr in pairs:
            if expr is None:
                continue
            child_sig = child_scope.lookup(port.name)
            assert isinstance(child_sig, Signal)
            if child_sig is alias_candidates.get(port.name):
                continue  # aliased: the nets are the same object
            if port.direction == "input":
                self._bind_input(design, parent, child_sig, expr, inst.name)
            else:
                self._bind_output(design, parent, child_sig, expr, inst.name)

    def _bind_input(self, design: Design, parent: Scope, child_sig: Signal,
                    expr: ast.Expr, inst_name: str) -> None:
        reads: set[str] = set()
        collect_expr_reads(expr, reads)

        def update(sim, _expr=expr, _sig=child_sig, _scope=parent):
            value = eval_expr(_expr, _scope, _sig.width).resize(_sig.width)
            sim.set_signal(_sig, value)

        design.processes.append(ProcSpec(
            kind="comb", scope=parent, pyfunc=update,
            reads=self._resolve_reads(parent, reads),
            label=f"{parent.prefix}{inst_name}.{child_sig.name}<=bind",
            port_bind=("in", expr, child_sig)))

    def _bind_output(self, design: Design, parent: Scope, child_sig: Signal,
                     expr: ast.Expr, inst_name: str) -> None:
        if not isinstance(expr, ast.Identifier):
            raise ElaborationError(
                f"instance {inst_name!r}: output ports must connect to a "
                "simple net")
        parent_sig = parent.lookup(expr.name)
        if not isinstance(parent_sig, Signal):
            raise ElaborationError(
                f"instance {inst_name!r}: {expr.name!r} is not a net")

        def update(sim, _src=child_sig, _dst=parent_sig):
            sim.set_signal(_dst, _src.value.resize(_dst.width))

        design.processes.append(ProcSpec(
            kind="comb", scope=parent, pyfunc=update, reads=(child_sig,),
            label=f"{parent.prefix}{inst_name}.{child_sig.name}=>bind",
            port_bind=("out", child_sig, parent_sig)))


def elaborate(source: ast.SourceFile, top: str) -> Design:
    """Elaborate ``source`` with ``top`` as the root module.

    Constant evaluation and width inference recurse on some operator
    runs (a ``parameter P = 1 << 0 << 0 ...`` of 600 terms), so a
    ``RecursionError`` raised here is reported as the design's
    elaboration failure, like any other construct it cannot build.
    """
    try:
        return Elaborator(source).elaborate(top)
    except RecursionError:
        raise ElaborationError("recursion limit") from None
