"""Expression evaluation with Verilog width/sign semantics.

The evaluator implements the pragmatic core of IEEE 1364 expression
semantics: context-determined widths for arithmetic/bitwise operators,
self-determined widths for shifts amounts, concatenations and comparisons,
signedness propagation (an expression is signed only when all of its
operands are signed), and pessimistic X-propagation via :class:`Logic`.

Two execution strategies share these semantics:

- :func:`eval_expr` walks the AST on every evaluation (constant folding
  during elaboration, and the test suite's reference interpreter);
- :func:`compile_expr` lowers an expression *once* into a tree of Python
  closures with all widths, signedness flags and constant indices
  resolved at compile time.  Runtime objects (signals, memories) are
  referenced through integer *slots* into a per-elaboration ``frame``
  tuple, allocated by a :class:`LowerCtx`, so the compiled closure tree
  is scope-polymorphic: one program is shared by every elaboration whose
  structural signature matches (see :mod:`repro.hdl.compile`).  Closures
  are memoised per lowering context, so shared subtrees and repeated
  compilations of the same node are free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import ast
from .errors import ElaborationError, HdlError, SimulationError
from .logic import Logic

if TYPE_CHECKING:  # pragma: no cover
    from .elaborate import Scope


# ----------------------------------------------------------------------
# Width and sign inference
# ----------------------------------------------------------------------
_CTX_ARITH = frozenset({"+", "-", "*", "/", "%", "&", "|", "^", "^~", "~^"})
_COMPARE = frozenset({"==", "!=", "===", "!==", "<", "<=", ">", ">="})
_LOGICAL = frozenset({"&&", "||"})
_SHIFTS = frozenset({"<<", ">>", "<<<", ">>>"})


def width_of(expr: ast.Expr, scope: "Scope") -> int:
    """Self-determined bit width of an expression."""
    if isinstance(expr, ast.Number):
        return expr.width if expr.width is not None else 32
    if isinstance(expr, ast.Identifier):
        return scope.width_of_name(expr.name)
    if isinstance(expr, ast.StringLit):
        return max(8 * len(expr.text), 8)
    if isinstance(expr, ast.Unary):
        if expr.op in ("!", "&", "~&", "|", "~|", "^", "~^", "^~"):
            return 1
        return width_of(expr.operand, scope)
    if isinstance(expr, ast.Binary):
        if expr.op in _COMPARE or expr.op in _LOGICAL:
            return 1
        if expr.op in _SHIFTS or expr.op == "**":
            return width_of(expr.left, scope)
        return max(width_of(expr.left, scope), width_of(expr.right, scope))
    if isinstance(expr, ast.Ternary):
        return max(width_of(expr.then, scope), width_of(expr.other, scope))
    if isinstance(expr, ast.Concat):
        return sum(width_of(p, scope) for p in expr.parts)
    if isinstance(expr, ast.Replicate):
        count = scope.const_int(expr.count)
        return count * width_of(expr.value, scope)
    if isinstance(expr, ast.Index):
        if scope.is_memory(expr.base):
            return scope.memory_width(expr.base)
        return 1
    if isinstance(expr, ast.PartSelect):
        msb = scope.const_int(expr.msb)
        lsb = scope.const_int(expr.lsb)
        if msb < lsb:
            raise ElaborationError(
                f"reversed part select [{msb}:{lsb}] on {expr.base}")
        return msb - lsb + 1
    if isinstance(expr, ast.SystemCall):
        if expr.name in ("$signed", "$unsigned"):
            return width_of(expr.args[0], scope)
        if expr.name == "$time":
            return 64
        if expr.name == "$clog2":
            return 32
        return 32
    raise ElaborationError(f"cannot size expression {expr!r}")


def signed_of(expr: ast.Expr, scope: "Scope") -> bool:
    """True when the expression is signed under Verilog propagation rules."""
    if isinstance(expr, ast.Number):
        return expr.signed
    if isinstance(expr, ast.Identifier):
        return scope.signed_of_name(expr.name)
    if isinstance(expr, ast.Unary):
        if expr.op in ("+", "-", "~"):
            return signed_of(expr.operand, scope)
        return False
    if isinstance(expr, ast.Binary):
        if expr.op in _CTX_ARITH:
            return signed_of(expr.left, scope) and signed_of(expr.right, scope)
        if expr.op in _SHIFTS or expr.op == "**":
            return signed_of(expr.left, scope)
        return False
    if isinstance(expr, ast.Ternary):
        return signed_of(expr.then, scope) and signed_of(expr.other, scope)
    if isinstance(expr, ast.SystemCall):
        if expr.name == "$signed":
            return True
        return False
    return False


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def eval_expr(expr: ast.Expr, scope: "Scope",
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
        return scope.read_name(expr.name)

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
        return Logic.concat([eval_expr(p, scope) for p in expr.parts])

    if isinstance(expr, ast.Replicate):
        count = scope.const_int(expr.count)
        if count < 1:
            raise SimulationError(f"replication count {count} must be >= 1")
        return eval_expr(expr.value, scope).replicate(count)

    if isinstance(expr, ast.Index):
        index = eval_expr(expr.index, scope)
        if scope.is_memory(expr.base):
            addr = index.to_uint()
            if addr is None:
                return Logic.unknown(scope.memory_width(expr.base))
            return scope.read_memory(expr.base, addr)
        base = scope.read_name(expr.base)
        idx = index.to_uint()
        if idx is None:
            return Logic.unknown(1)
        return base.bit(idx)

    if isinstance(expr, ast.PartSelect):
        base = scope.read_name(expr.base)
        msb = scope.const_int(expr.msb)
        lsb = scope.const_int(expr.lsb)
        return base.part(msb, lsb)

    if isinstance(expr, ast.SystemCall):
        return _eval_system_call(expr, scope)

    raise SimulationError(f"cannot evaluate expression {expr!r}")


def _eval_unary(expr: ast.Unary, scope: "Scope",
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


def _eval_binary(expr: ast.Binary, scope: "Scope",
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
    w = max(width_of(expr.left, scope), width_of(expr.right, scope),
            ctx_width or 0)
    l_signed = signed_of(expr.left, scope)
    r_signed = signed_of(expr.right, scope)
    both_signed = l_signed and r_signed
    left = eval_expr(expr.left, scope, w).resize(w, both_signed)
    right = eval_expr(expr.right, scope, w).resize(w, both_signed)
    if op == "+":
        return left.add(right, w)
    if op == "-":
        return left.sub(right, w)
    if op == "*":
        return left.mul(right, w)
    if op == "/":
        return left.div(right, w, both_signed)
    if op == "%":
        return left.mod(right, w, both_signed)
    if op == "&":
        return left.band(right)
    if op == "|":
        return left.bor(right)
    if op == "^":
        return left.bxor(right)
    if op in ("^~", "~^"):
        return left.bxnor(right)
    if op == "**":
        return left.pow(right, w)
    raise SimulationError(f"unsupported binary operator {op!r}")


def _eval_system_call(expr: ast.SystemCall, scope: "Scope") -> Logic:
    name = expr.name
    if name == "$time":
        return Logic.from_int(scope.sim_time(), 64)
    if name == "$signed":
        return eval_expr(expr.args[0], scope)
    if name == "$unsigned":
        return eval_expr(expr.args[0], scope)
    if name in ("$random", "$urandom"):
        return Logic.from_int(scope.sim_random(), 32)
    if name == "$clog2":
        value = eval_expr(expr.args[0], scope).to_uint()
        if value is None:
            return Logic.unknown(32)
        return Logic.from_int(max(value - 1, 0).bit_length(), 32)
    if name == "$fopen":
        filename = expr.args[0]
        if not isinstance(filename, ast.StringLit):
            raise SimulationError("$fopen expects a string literal")
        return Logic.from_int(scope.sim_fopen(filename.text), 32)
    raise SimulationError(f"unsupported system function {name!r}")


# ----------------------------------------------------------------------
# Case-label matching (shared by the interpreter and compiled engine)
# ----------------------------------------------------------------------
def case_match(kind: str, subject: Logic, label: Logic) -> bool:
    """``case``/``casez``/``casex`` label comparison semantics."""
    w = max(subject.width, label.width)
    s, lab = subject.resize(w), label.resize(w)
    if kind == "case":
        return s.val == lab.val and s.xmask == lab.xmask
    wildcard = lab.xmask
    if kind == "casex":
        wildcard |= s.xmask
    elif s.xmask & ~wildcard:
        return False  # casez: unknown subject bits never match
    mask = ((1 << w) - 1) & ~wildcard
    return (s.val & mask) == (lab.val & mask)


# ----------------------------------------------------------------------
# Lowering context: slot allocation + structural signatures
# ----------------------------------------------------------------------
_Signal = None  # resolved lazily; eval <-> elaborate import cycle
_Memory = None


def _signal_type():
    global _Signal
    if _Signal is None:
        from .elaborate import Signal
        _Signal = Signal
    return _Signal


def _memory_type():
    global _Memory
    if _Memory is None:
        from .elaborate import Memory
        _Memory = Memory
    return _Memory


# Slot descriptor tags (the bind-time recipe of a shared program).
SLOT_OBJ = "obj"        # ("obj", name)    -> scope.names[name]
SLOT_LIT = "lit"        # ("lit", payload) -> payload verbatim
SLOT_REQ = "req"        # ("req", ((edge, slot_idx), ...)) -> wait request
SLOT_DESIGN = "design"  # ("design",)      -> scope.design (runtime hooks)
SLOT_SINK = "sink"      # ("sink",)        -> port-bind sink signal


def structural_fact(scope: "Scope", name: str, tag: str = "") -> tuple:
    """The structural fact ``name`` resolves to in ``scope``.

    Facts are what a shared program's signature records per referenced
    name; another elaboration may reuse the program iff every recorded
    fact recomputes identically in its scope.  ``tag`` selects the
    strength: ``"sigval"`` (a signal whose *elaboration-time value* was
    baked into the program via constant evaluation) also captures the
    value, everything else only shape.
    """
    obj = scope.names.get(name)
    if obj is None:
        return ("missing",)
    if isinstance(obj, _signal_type()):
        if tag == "sigval":
            return ("sigval", obj.width, obj.signed,
                    obj.value.val, obj.value.xmask)
        return ("sig", obj.width, obj.signed)
    if isinstance(obj, _memory_type()):
        return ("mem", obj.width, obj.lo, obj.hi, obj.signed)
    # Logic constant (parameter / localparam).
    return ("const", obj.width, obj.val, obj.xmask)


class LowerCtx:
    """Compile-time context for lowering one process to a shared program.

    Quacks like :class:`~repro.hdl.elaborate.Scope` for every
    compile-time query (width/signedness inference, constant
    evaluation), while additionally:

    - allocating *frame slots* for each runtime object the compiled
      closures touch (signals, memories, prebuilt wait/delay requests,
      the owning design).  Closures index an immutable per-elaboration
      ``frame`` tuple instead of capturing ``Signal`` objects, which is
      what makes a compiled program scope-polymorphic;
    - recording a structural fact for every name it resolves.  The facts
      form the program's signature: a different elaboration reuses the
      program iff each recorded name resolves to a structurally
      identical object there (see :func:`structural_fact`).
    """

    def __init__(self, scope: "Scope"):
        self.scope = scope
        self.slot_specs: list[tuple] = []
        self.facts: dict[str, tuple] = {}
        # Cleared by lowerings that bake non-relocatable state into the
        # closures (elaboration-time memory contents, runtime hooks
        # evaluated at compile time, foreign-scope signal objects).
        self.shareable = True
        # Deferred compile errors embed this scope's prefix (or the
        # process label) in their message; such programs only transfer
        # between processes with equal prefixes and labels.
        self.prefix_sensitive = False
        # Set when a runtime ``$time`` read is compiled in: the program's
        # behaviour then depends on the absolute time, not only on
        # signal values (the kernel's fast-forward must not skip it).
        self.reads_time = False
        self._obj_slots: dict[str, int] = {}
        self._lit_slots: dict = {}
        self._design_slot: int | None = None
        self._sink_slot: int | None = None
        self._expr_cache: dict = {}

    # -- slot allocation ------------------------------------------------
    def _new_slot(self, spec: tuple) -> int:
        self.slot_specs.append(spec)
        return len(self.slot_specs) - 1

    def obj_slot(self, name: str) -> int:
        idx = self._obj_slots.get(name)
        if idx is None:
            idx = self._obj_slots[name] = self._new_slot((SLOT_OBJ, name))
        return idx

    def lit_slot(self, payload) -> int:
        key = (SLOT_LIT, payload)
        idx = self._lit_slots.get(key)
        if idx is None:
            idx = self._lit_slots[key] = self._new_slot(key)
        return idx

    def request_slot(self, pairs: tuple) -> int:
        """Slot for a prebuilt ``("wait", ...)`` request over signal
        slots allocated earlier (``pairs`` is ``((edge, slot_idx), ...)``)."""
        key = (SLOT_REQ, pairs)
        idx = self._lit_slots.get(key)
        if idx is None:
            idx = self._lit_slots[key] = self._new_slot(key)
        return idx

    def design_slot(self) -> int:
        if self._design_slot is None:
            self._design_slot = self._new_slot((SLOT_DESIGN,))
        return self._design_slot

    def sink_slot(self) -> int:
        if self._sink_slot is None:
            self._sink_slot = self._new_slot((SLOT_SINK,))
        return self._sink_slot

    def note_deferred(self) -> None:
        """Record that a compile error was deferred into the program."""
        self.prefix_sensitive = True

    def signature(self) -> tuple:
        return tuple(sorted(self.facts.items()))

    # -- fact recording -------------------------------------------------
    def _touch(self, name: str) -> None:
        if name not in self.facts:
            self.facts[name] = structural_fact(self.scope, name)

    # -- Scope protocol (compile-time queries) --------------------------
    @property
    def prefix(self) -> str:
        return self.scope.prefix

    @property
    def names(self) -> dict:
        return self.scope.names

    def lookup(self, name: str):
        self._touch(name)
        return self.scope.lookup(name)

    def width_of_name(self, name: str) -> int:
        self._touch(name)
        return self.scope.width_of_name(name)

    def signed_of_name(self, name: str) -> bool:
        self._touch(name)
        return self.scope.signed_of_name(name)

    def is_memory(self, name: str) -> bool:
        self._touch(name)
        return self.scope.is_memory(name)

    def memory_width(self, name: str) -> int:
        self._touch(name)
        return self.scope.memory_width(name)

    def read_name(self, name: str) -> Logic:
        # Constant evaluation reading a signal's elaboration-time value
        # bakes that value into the program, so record it in the fact.
        if isinstance(self.scope.names.get(name), _signal_type()):
            self.facts[name] = structural_fact(self.scope, name, "sigval")
        else:
            self._touch(name)
        return self.scope.read_name(name)

    def read_memory(self, name: str, addr: int) -> Logic:
        # Elaboration-time memory contents are not part of the
        # signature; a program whose compilation read them is unsafe to
        # transfer to another elaboration.
        self.shareable = False
        return self.scope.read_memory(name, addr)

    def const_int(self, expr: ast.Expr) -> int:
        value = eval_expr(expr, self)
        result = value.to_uint()
        if result is None:
            raise ElaborationError(
                "expression is not a defined constant in "
                f"{self.scope.prefix or 'top'}")
        return result

    # -- runtime hooks reached during constant evaluation ----------------
    def sim_time(self) -> int:
        self.shareable = False
        return self.scope.sim_time()

    def sim_random(self) -> int:
        self.shareable = False
        return self.scope.sim_random()

    def sim_fopen(self, filename: str) -> int:
        self.shareable = False
        return self.scope.sim_fopen(filename)


# ----------------------------------------------------------------------
# Expression compilation (slot-indexed closure trees + per-program cache)
# ----------------------------------------------------------------------
def compile_expr(expr: ast.Expr, ctx: LowerCtx,
                 ctx_width: int | None = None):
    """Compile ``expr`` to a closure ``fn(frame) -> Logic``.

    The closure is the compiled counterpart of
    ``eval_expr(expr, scope, ctx_width)``: widths, signedness and
    elaboration-time constants are resolved now, and every runtime
    object is referenced through an integer slot into the bind-time
    ``frame`` tuple — the same compiled program runs against any
    elaboration whose frame it is bound to.  Results are memoised per
    lowering context, keyed by ``(id(expr), ctx_width)`` (valid because
    AST nodes are pinned by the program cache for the program's
    lifetime).
    """
    cache = ctx._expr_cache
    key = (id(expr), ctx_width)
    fn = cache.get(key)
    if fn is None:
        fn = _compile_expr(expr, ctx, ctx_width)
        cache[key] = fn
    return fn


def _read_closure(name: str, ctx: LowerCtx):
    """Compiled counterpart of ``scope.read_name``."""
    obj = ctx.lookup(name)
    if isinstance(obj, Logic):
        return lambda frame: obj
    if isinstance(obj, _signal_type()):
        i = ctx.obj_slot(name)
        return lambda frame: frame[i].value
    raise ElaborationError(f"cannot read {name!r} as a value")


_REDUCTIONS = frozenset({"!", "&", "~&", "|", "~|", "^", "~^", "^~"})


def _result_width(expr: ast.Expr, scope: "Scope",
                  ctx_width: int | None) -> int:
    """Static width of ``compile_expr(expr, scope, ctx_width)()``.

    Mirrors what :func:`eval_expr` returns for each node kind: operators
    with context-determined operands widen to ``max(self, ctx)``, all
    others are self-determined.  Used to elide no-op ``resize`` calls at
    compile time.
    """
    if isinstance(expr, ast.Unary):
        if expr.op in _REDUCTIONS:
            return 1
        return max(width_of(expr.operand, scope), ctx_width or 0)
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op in _LOGICAL or op in _COMPARE:
            return 1
        if op in _SHIFTS:
            return max(width_of(expr.left, scope), ctx_width or 0)
        return max(width_of(expr.left, scope),
                   width_of(expr.right, scope), ctx_width or 0)
    if isinstance(expr, ast.Ternary):
        return max(width_of(expr, scope), ctx_width or 0)
    return width_of(expr, scope)


def compile_coerced(expr: ast.Expr, ctx: LowerCtx, width: int,
                    signed: bool):
    """Compile ``eval_expr(expr, scope, width).resize(width, signed)``.

    The trailing resize is elided when the compiled closure is statically
    known to produce ``width``-bit values already (``resize`` to the same
    width is the identity).
    """
    fn = compile_expr(expr, ctx, width)
    if _result_width(expr, ctx, width) == width:
        return fn
    return lambda frame: fn(frame).resize(width, signed)


def compile_expr_deferred(expr: ast.Expr, ctx: LowerCtx,
                          ctx_width: int | None = None):
    """Like :func:`compile_expr`, but a compile-time :class:`HdlError`
    becomes a closure that re-raises when *evaluated*.

    Used where the interpreter evaluates an expression conditionally
    (case labels, unselected ternary branches): the compiled engine must
    not fail on a branch the interpreter would never reach.
    """
    try:
        return compile_expr(expr, ctx, ctx_width)
    except HdlError as exc:
        ctx.note_deferred()

        def raise_deferred(frame, _exc=exc):
            # Shared instance: shed the previous raise's traceback so
            # repeated evaluations don't chain frames forever.
            _exc.__traceback__ = None
            _exc.__context__ = None
            raise _exc
        return raise_deferred


def _coerced_deferred(expr: ast.Expr, ctx: LowerCtx, width: int,
                      signed: bool):
    try:
        return compile_coerced(expr, ctx, width, signed)
    except HdlError as exc:
        ctx.note_deferred()

        def raise_deferred(frame, _exc=exc):
            _exc.__traceback__ = None
            _exc.__context__ = None
            raise _exc
        return raise_deferred


def _compile_expr(expr: ast.Expr, ctx: LowerCtx, ctx_width: int | None):
    if isinstance(expr, ast.Number):
        width = expr.width if expr.width is not None else 32
        const = Logic(width, expr.val, expr.xmask)
        return lambda frame: const

    if isinstance(expr, ast.Identifier):
        return _read_closure(expr.name, ctx)

    if isinstance(expr, ast.StringLit):
        data = expr.text.encode("latin-1", "replace")
        val = int.from_bytes(data, "big") if data else 0
        const = Logic(max(8 * len(data), 8), val, 0)
        return lambda frame: const

    if isinstance(expr, ast.Unary):
        return _compile_unary(expr, ctx, ctx_width)

    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, ctx, ctx_width)

    if isinstance(expr, ast.Ternary):
        w = max(width_of(expr, ctx), ctx_width or 0)
        cond = compile_expr(expr.cond, ctx)
        # Branches compile deferred: the interpreter only evaluates the
        # selected branch, so a broken unselected branch must not fail
        # until (unless) it is actually chosen.
        then = _coerced_deferred(expr.then, ctx, w,
                                 signed_of(expr.then, ctx))
        other = _coerced_deferred(expr.other, ctx, w,
                                  signed_of(expr.other, ctx))
        full = (1 << w) - 1

        def ternary(frame):
            sel = cond(frame).truth()
            if sel is True:
                return then(frame)
            if sel is False:
                return other(frame)
            a = then(frame)
            b = other(frame)
            agree = ~(a.val ^ b.val) & ~a.xmask & ~b.xmask
            return Logic(w, a.val & agree, full & ~agree)
        return ternary

    if isinstance(expr, ast.Concat):
        fns = tuple(compile_expr(p, ctx) for p in expr.parts)
        return lambda frame: Logic.concat([f(frame) for f in fns])

    if isinstance(expr, ast.Replicate):
        count = ctx.const_int(expr.count)
        if count < 1:
            raise SimulationError(f"replication count {count} must be >= 1")
        value = compile_expr(expr.value, ctx)
        return lambda frame: value(frame).replicate(count)

    if isinstance(expr, ast.Index):
        index = compile_expr(expr.index, ctx)
        if ctx.is_memory(expr.base):
            width = ctx.memory_width(expr.base)
            ctx.lookup(expr.base)
            i = ctx.obj_slot(expr.base)
            unknown = Logic.unknown(width)

            def read_word(frame):
                addr = index(frame).to_uint()
                if addr is None:
                    return unknown
                return frame[i].read(addr)
            return read_word
        base = _read_closure(expr.base, ctx)
        unknown_bit = Logic.unknown(1)

        def read_bit(frame):
            value = base(frame)
            idx = index(frame).to_uint()
            if idx is None:
                return unknown_bit
            return value.bit(idx)
        return read_bit

    if isinstance(expr, ast.PartSelect):
        base = _read_closure(expr.base, ctx)
        msb = ctx.const_int(expr.msb)
        lsb = ctx.const_int(expr.lsb)
        return lambda frame: base(frame).part(msb, lsb)

    if isinstance(expr, ast.SystemCall):
        return _compile_system_call(expr, ctx)

    raise SimulationError(f"cannot evaluate expression {expr!r}")


def _compile_unary(expr: ast.Unary, ctx: LowerCtx, ctx_width: int | None):
    op = expr.op
    if op in ("!", "&", "~&", "|", "~|", "^", "~^", "^~"):
        operand = compile_expr(expr.operand, ctx)
        method = {
            "!": Logic.lnot, "&": Logic.reduce_and, "~&": Logic.reduce_nand,
            "|": Logic.reduce_or, "~|": Logic.reduce_nor,
            "^": Logic.reduce_xor, "~^": Logic.reduce_xnor,
            "^~": Logic.reduce_xnor,
        }[op]
        return lambda frame: method(operand(frame))

    w = max(width_of(expr.operand, ctx), ctx_width or 0)
    signed = signed_of(expr.operand, ctx)
    operand = compile_coerced(expr.operand, ctx, w, signed)
    if op == "~":
        return lambda frame: operand(frame).bnot()
    if op == "-":
        return lambda frame: operand(frame).neg(w)
    if op == "+":
        return operand
    raise SimulationError(f"unsupported unary operator {op!r}")


def _compile_binary(expr: ast.Binary, ctx: LowerCtx, ctx_width: int | None):
    op = expr.op

    if op in _LOGICAL:
        left = compile_expr(expr.left, ctx)
        right = compile_expr(expr.right, ctx)
        if op == "&&":
            return lambda frame: left(frame).land(right(frame))
        return lambda frame: left(frame).lor(right(frame))

    if op in _COMPARE:
        w = max(width_of(expr.left, ctx), width_of(expr.right, ctx))
        signed = (signed_of(expr.left, ctx)
                  and signed_of(expr.right, ctx))
        left = compile_coerced(expr.left, ctx, w, signed)
        right = compile_coerced(expr.right, ctx, w, signed)
        if op == "==":
            return lambda frame: left(frame).eq(right(frame))
        if op == "!=":
            return lambda frame: left(frame).neq(right(frame))
        if op == "===":
            return lambda frame: left(frame).case_eq(right(frame))
        if op == "!==":
            return lambda frame: left(frame).case_neq(right(frame))
        method = {"<": Logic.lt, "<=": Logic.le,
                  ">": Logic.gt, ">=": Logic.ge}[op]
        return lambda frame: method(left(frame), right(frame), signed)

    if op in _SHIFTS:
        w = max(width_of(expr.left, ctx), ctx_width or 0)
        signed = signed_of(expr.left, ctx)
        left = compile_coerced(expr.left, ctx, w, signed)
        amount = compile_expr(expr.right, ctx)
        if op in ("<<", "<<<"):
            return lambda frame: left(frame).shl(amount(frame), w)
        if op == ">>":
            return lambda frame: left(frame).shr(amount(frame), w)
        if signed:
            return lambda frame: left(frame).ashr(amount(frame), w)
        return lambda frame: left(frame).shr(amount(frame), w)

    # Context-determined arithmetic / bitwise operators.
    w = max(width_of(expr.left, ctx), width_of(expr.right, ctx),
            ctx_width or 0)
    both = (signed_of(expr.left, ctx) and signed_of(expr.right, ctx))
    left = compile_coerced(expr.left, ctx, w, both)
    right = compile_coerced(expr.right, ctx, w, both)
    if op == "+":
        return lambda frame: left(frame).add(right(frame), w)
    if op == "-":
        return lambda frame: left(frame).sub(right(frame), w)
    if op == "*":
        return lambda frame: left(frame).mul(right(frame), w)
    if op == "/":
        return lambda frame: left(frame).div(right(frame), w, both)
    if op == "%":
        return lambda frame: left(frame).mod(right(frame), w, both)
    if op == "&":
        return lambda frame: left(frame).band(right(frame))
    if op == "|":
        return lambda frame: left(frame).bor(right(frame))
    if op == "^":
        return lambda frame: left(frame).bxor(right(frame))
    if op in ("^~", "~^"):
        return lambda frame: left(frame).bxnor(right(frame))
    if op == "**":
        return lambda frame: left(frame).pow(right(frame), w)
    raise SimulationError(f"unsupported binary operator {op!r}")


def _compile_system_call(expr: ast.SystemCall, ctx: LowerCtx):
    name = expr.name
    if name == "$time":
        ctx.reads_time = True
        j = ctx.design_slot()
        return lambda frame: Logic.from_int(frame[j].runtime_time(), 64)
    if name in ("$signed", "$unsigned"):
        return compile_expr(expr.args[0], ctx)
    if name in ("$random", "$urandom"):
        j = ctx.design_slot()
        return lambda frame: Logic.from_int(frame[j].runtime_random(), 32)
    if name == "$clog2":
        arg = compile_expr(expr.args[0], ctx)
        unknown = Logic.unknown(32)

        def clog2(frame):
            value = arg(frame).to_uint()
            if value is None:
                return unknown
            return Logic.from_int(max(value - 1, 0).bit_length(), 32)
        return clog2
    if name == "$fopen":
        filename = expr.args[0]
        if not isinstance(filename, ast.StringLit):
            raise SimulationError("$fopen expects a string literal")
        text = filename.text
        j = ctx.design_slot()
        return lambda frame: Logic.from_int(frame[j].runtime_fopen(text), 32)
    raise SimulationError(f"unsupported system function {name!r}")


# ----------------------------------------------------------------------
# Static read-set collection (for @(*) and continuous assignments)
# ----------------------------------------------------------------------
def collect_expr_reads(expr: ast.Expr, out: set[str]) -> None:
    if isinstance(expr, ast.Identifier):
        out.add(expr.name)
    elif isinstance(expr, (ast.Number, ast.StringLit)):
        pass
    elif isinstance(expr, ast.Unary):
        collect_expr_reads(expr.operand, out)
    elif isinstance(expr, ast.Binary):
        collect_expr_reads(expr.left, out)
        collect_expr_reads(expr.right, out)
    elif isinstance(expr, ast.Ternary):
        collect_expr_reads(expr.cond, out)
        collect_expr_reads(expr.then, out)
        collect_expr_reads(expr.other, out)
    elif isinstance(expr, ast.Concat):
        for p in expr.parts:
            collect_expr_reads(p, out)
    elif isinstance(expr, ast.Replicate):
        collect_expr_reads(expr.count, out)
        collect_expr_reads(expr.value, out)
    elif isinstance(expr, ast.Index):
        out.add(expr.base)
        collect_expr_reads(expr.index, out)
    elif isinstance(expr, ast.PartSelect):
        out.add(expr.base)
        collect_expr_reads(expr.msb, out)
        collect_expr_reads(expr.lsb, out)
    elif isinstance(expr, ast.SystemCall):
        for a in expr.args:
            collect_expr_reads(a, out)


def _collect_lvalue_reads(lv: ast.LValue, out: set[str]) -> None:
    if isinstance(lv, ast.LvIndex):
        collect_expr_reads(lv.index, out)
    elif isinstance(lv, ast.LvPart):
        collect_expr_reads(lv.msb, out)
        collect_expr_reads(lv.lsb, out)
    elif isinstance(lv, ast.LvConcat):
        for p in lv.parts:
            _collect_lvalue_reads(p, out)


def collect_stmt_reads(stmt: ast.Stmt, out: set[str]) -> None:
    """Read set of a statement for ``always @(*)`` sensitivity."""
    if isinstance(stmt, ast.Block):
        for s in stmt.stmts:
            collect_stmt_reads(s, out)
    elif isinstance(stmt, ast.If):
        collect_expr_reads(stmt.cond, out)
        collect_stmt_reads(stmt.then, out)
        if stmt.other is not None:
            collect_stmt_reads(stmt.other, out)
    elif isinstance(stmt, ast.Case):
        collect_expr_reads(stmt.subject, out)
        for item in stmt.items:
            for label in item.labels:
                collect_expr_reads(label, out)
            collect_stmt_reads(item.body, out)
    elif isinstance(stmt, ast.For):
        collect_expr_reads(stmt.init.value, out)
        collect_expr_reads(stmt.cond, out)
        collect_expr_reads(stmt.step.value, out)
        collect_stmt_reads(stmt.body, out)
    elif isinstance(stmt, (ast.While, ast.Repeat)):
        collect_expr_reads(stmt.cond if isinstance(stmt, ast.While)
                           else stmt.count, out)
        collect_stmt_reads(stmt.body, out)
    elif isinstance(stmt, ast.Forever):
        collect_stmt_reads(stmt.body, out)
    elif isinstance(stmt, (ast.BlockingAssign, ast.NonblockingAssign)):
        collect_expr_reads(stmt.value, out)
        _collect_lvalue_reads(stmt.target, out)
    elif isinstance(stmt, ast.DelayStmt):
        if stmt.stmt is not None:
            collect_stmt_reads(stmt.stmt, out)
    elif isinstance(stmt, ast.EventControl):
        if stmt.stmt is not None:
            collect_stmt_reads(stmt.stmt, out)
    elif isinstance(stmt, ast.SysTaskCall):
        for a in stmt.args:
            collect_expr_reads(a, out)
