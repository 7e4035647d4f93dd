"""Expression lowering with Verilog width/sign semantics.

The lowering implements the pragmatic core of IEEE 1364 expression
semantics: context-determined widths for arithmetic/bitwise operators,
self-determined widths for shifts amounts, concatenations and comparisons,
signedness propagation (an expression is signed only when all of its
operands are signed), and pessimistic X-propagation via :class:`Logic`.

:func:`compile_expr` lowers an expression *once* into a tree of Python
closures with all widths, signedness flags and constant indices
resolved at compile time.  Runtime objects (signals, memories) are
referenced through integer *slots* into a per-elaboration ``frame``
tuple, allocated by a :class:`LowerCtx`, so the compiled closure tree is
scope-polymorphic: one program is shared by every elaboration whose
structural signature matches (see :mod:`repro.hdl.compile`).  Closures
are memoised per lowering context, so shared subtrees and repeated
compilations of the same node are free, and leaves are shared by value:
one read closure per name, one closure per constant.

:func:`fold` evaluates elaboration-time constants (parameters, ranges,
initial values, part-select bounds, replication counts) by running such
a closure once, against no frame: a constant that reads a signal, a
memory word or a runtime hook (``$time``, ``$random``, ``$fopen``)
raises :class:`~repro.hdl.errors.NotConstantError`.  The AST-walking
reference evaluator the compiled closures are held to lives with the
test suite's interpreter oracle (``tests/oracles/interpreter.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

from . import ast
from .errors import (ElaborationError, HdlError, NotConstantError,
                     SimulationError)
from .logic import Logic

if TYPE_CHECKING:  # pragma: no cover
    from .elaborate import Scope


# ----------------------------------------------------------------------
# Width and sign inference
# ----------------------------------------------------------------------
#: Widest declared signal, concatenation or replication.  String
#: literals are exempt: a lockstep-widened dump format is one literal
#: far wider than this.  Over the digest-pinned campaign items the
#: widest concatenation or replication is 16 bits.
MAX_SIGNAL_WIDTH = 4096


def check_width(width: int, what: str) -> None:
    """Raise the typed "unsupported width" error past the cap.

    >>> check_width(20_000_000, "replication")
    Traceback (most recent call last):
    ...
    repro.hdl.errors.ElaborationError: replication has unsupported width 20000000
    """
    if width > MAX_SIGNAL_WIDTH:
        raise ElaborationError(f"{what} has unsupported width {width}")


_CTX_ARITH = frozenset({"+", "-", "*", "/", "%", "&", "|", "^", "^~", "~^"})
_COMPARE = frozenset({"==", "!=", "===", "!==", "<", "<=", ">", ">="})
_LOGICAL = frozenset({"&&", "||"})
_SHIFTS = frozenset({"<<", ">>", "<<<", ">>>"})
#: Reduction operators and ``!``: one-bit, self-determined results.
_REDUCTIONS = {
    "!": Logic.lnot, "&": Logic.reduce_and, "~&": Logic.reduce_nand,
    "|": Logic.reduce_or, "~|": Logic.reduce_nor, "^": Logic.reduce_xor,
    "~^": Logic.reduce_xnor, "^~": Logic.reduce_xnor,
}


def _arith_chain(expr: ast.Binary) -> Sequence[ast.Binary]:
    """The left-deep run of context-determined operators that ``expr``
    tops, innermost node first.

    The parser builds ``a + b - c + d`` as one such run, so the
    functions that size, sign, evaluate and lower it walk the run in a
    loop instead of recursing once per operator: at several frames per
    operator, a 250-term sum used to exhaust the recursion limit.
    """
    left = expr.left
    if not (isinstance(left, ast.Binary) and left.op in _CTX_ARITH):
        return (expr,)  # the common case: one operator
    chain = [expr]
    while isinstance(left, ast.Binary) and left.op in _CTX_ARITH:
        chain.append(left)
        left = left.left
    chain.reverse()
    return chain


def width_of(expr: ast.Expr, scope: "Scope") -> int:
    """Self-determined bit width of an expression."""
    if isinstance(expr, ast.Number):
        return expr.width if expr.width is not None else 32
    if isinstance(expr, ast.Identifier):
        return scope.width_of_name(expr.name)
    if isinstance(expr, ast.StringLit):
        return max(8 * len(expr.text), 8)
    if isinstance(expr, ast.Unary):
        if expr.op in _REDUCTIONS:
            return 1
        return width_of(expr.operand, scope)
    if isinstance(expr, ast.Binary):
        if expr.op in _COMPARE or expr.op in _LOGICAL:
            return 1
        if expr.op in _SHIFTS or expr.op == "**":
            return width_of(expr.left, scope)
        chain = _arith_chain(expr)
        width = width_of(chain[0].left, scope)
        for node in chain:
            width = max(width, width_of(node.right, scope))
        return width
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
        return 64 if expr.name == "$time" else 32
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
            chain = _arith_chain(expr)
            return (signed_of(chain[0].left, scope)
                    and all(signed_of(node.right, scope) for node in chain))
        if expr.op in _SHIFTS or expr.op == "**":
            return signed_of(expr.left, scope)
        return False
    if isinstance(expr, ast.Ternary):
        return signed_of(expr.then, scope) and signed_of(expr.other, scope)
    if isinstance(expr, ast.SystemCall):
        return expr.name == "$signed"
    return False


def _chain_shape(chain: Sequence[ast.Binary], scope: "Scope",
                 ctx_width: int | None) -> tuple[int, list[bool]]:
    """``(width, boths)`` of a left-deep operator run: every node has
    the run's width (the widest operand or the context), and node ``i``
    takes its operands as signed iff every operand up to and including
    its right one is signed.  Operands are sized and signed left to
    right, so a broken operand raises the same error as node-by-node
    recursion would."""
    first = chain[0].left
    width = max(width_of(first, scope),
                *(width_of(node.right, scope) for node in chain),
                ctx_width or 0)
    signed = signed_of(first, scope)
    boths = []
    for node in chain:
        signed = signed and signed_of(node.right, scope)
        boths.append(signed)
    return width, boths


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


def _signal_type():
    global _Signal
    if _Signal is None:
        from .elaborate import Signal
        _Signal = Signal
    return _Signal


# Slot descriptor tags (the bind-time recipe of a shared program).
SLOT_OBJ = "obj"        # ("obj", name)    -> scope.names[name]
SLOT_LIT = "lit"        # ("lit", payload) -> payload verbatim
SLOT_REQ = "req"        # ("req", ((edge, slot_idx), ...)) -> wait request
SLOT_DESIGN = "design"  # ("design", first hook) -> scope.design
SLOT_SINK = "sink"      # ("sink",)        -> port-bind sink signal


def structural_fact(scope: "Scope", name: str) -> tuple:
    """The structural fact ``name`` resolves to in ``scope``.

    Facts are what a shared program's signature records per referenced
    name; another elaboration may reuse the program iff every recorded
    fact recomputes identically in its scope.  A signal or memory
    records its shape (a frame slot reads its value), a parameter its
    value (baked into the program).
    """
    obj = scope.names.get(name)
    if obj is None:
        return ("missing",)
    if isinstance(obj, Logic):  # parameter / localparam
        return ("const", obj.width, obj.val, obj.xmask)
    if isinstance(obj, _signal_type()):
        return ("sig", obj.width, obj.signed)
    return ("mem", obj.width, obj.lo, obj.hi, obj.signed)


class LowerCtx:
    """Compile-time context for lowering one process to a shared program.

    Answers :class:`~repro.hdl.elaborate.Scope`'s compile-time queries
    (width and signedness inference, constants via :func:`fold`), while:

    - allocating *frame slots* for each runtime object the compiled
      closures touch (signals, memories, prebuilt wait/delay requests,
      the owning design).  Closures index an immutable per-elaboration
      ``frame`` tuple instead of capturing ``Signal`` objects, which is
      what makes a compiled program scope-polymorphic;
    - recording a structural fact for every name it resolves.  The facts
      form the program's signature: a different elaboration reuses the
      program iff each recorded name resolves to a structurally
      identical object there (see :func:`structural_fact`);
    - holding one lowering per distinct expression and statement (see
      :func:`compile_expr`), and one closure per leaf value: every read
      of a name shares one read closure and every occurrence of a
      constant one constant closure, however many times the program's
      source repeats them.

    A repeated lowering may return the first one's result because
    lowering only ever *adds* to the context, and adds the same things
    for equal input: a slot or fact already recorded is found again, and
    the flags only go from their initial value to the other.  A memo hit
    therefore leaves ``slot_specs``, ``facts``, ``shareable``,
    ``prefix_sensitive`` and ``reads_time`` exactly as lowering the
    node again would.
    """

    def __init__(self, scope: "Scope"):
        self.scope = scope
        self.slot_specs: list[tuple] = []
        self.facts: dict[str, tuple] = {}
        # Cleared by lowerings that bake non-relocatable state into the
        # closures (an output port bind's foreign-scope signal objects).
        self.shareable = True
        # Deferred compile errors embed this scope's prefix (or the
        # process label) in their message; such programs only transfer
        # between processes with equal prefixes and labels.
        self.prefix_sensitive = False
        # Set when a runtime ``$time`` read is compiled in: the program's
        # behaviour then depends on the absolute time, not only on
        # signal values (the kernel's fast-forward must not skip it).
        self.reads_time = False
        # The first deferred NotConstantError: a constant is rejected for
        # a variable read in any branch, selected or not (see fold).
        self.not_constant: NotConstantError | None = None
        self._obj_slots: dict[str, int] = {}
        self._lit_slots: dict = {}
        self._design_slot: int | None = None
        self._sink_slot: int | None = None
        # Lowerings keyed by AST value: (expr, ctx_width) -> closure, and
        # stmt -> compiled statement (repro.hdl.compile.compile_stmt).
        self._expr_cache: dict = {}
        self._stmt_cache: dict = {}
        self._read_fns: dict[str, Callable] = {}
        self._const_fns: dict[tuple, Callable] = {}

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

    def design_slot(self, hook: str) -> int:
        if self._design_slot is None:
            self._design_slot = self._new_slot((SLOT_DESIGN, hook))
        return self._design_slot

    def sink_slot(self) -> int:
        if self._sink_slot is None:
            self._sink_slot = self._new_slot((SLOT_SINK,))
        return self._sink_slot

    def const_fn(self, width: int, val: int, xmask: int = 0) -> Callable:
        """The program's one closure returning ``Logic(width, val, xmask)``."""
        key = (width, val, xmask)
        fn = self._const_fns.get(key)
        if fn is None:
            const = Logic(width, val, xmask)
            fn = self._const_fns[key] = lambda frame: const
        return fn

    def note_deferred(self, exc: HdlError | None = None) -> None:
        """Record that a compile error was deferred into the program."""
        self.prefix_sensitive = True
        if self.not_constant is None and isinstance(exc, NotConstantError):
            self.not_constant = exc

    def signature(self) -> tuple:
        return tuple(sorted(self.facts.items()))

    # -- fact recording -------------------------------------------------
    def _touch(self, name: str) -> None:
        if name not in self.facts:
            self.facts[name] = structural_fact(self.scope, name)

    # -- Scope protocol (compile-time queries) --------------------------
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

    def const_int(self, expr: ast.Expr) -> int:
        return self.scope.const_int(expr, self)


# ----------------------------------------------------------------------
# Expression compilation (slot-indexed closure trees + per-program cache)
# ----------------------------------------------------------------------
def compile_expr(expr: ast.Expr, ctx: LowerCtx,
                 ctx_width: int | None = None):
    """Compile ``expr`` to a closure ``fn(frame) -> Logic``.

    ``ctx_width`` is the assignment/expression context width used to
    widen context-determined operands (so ``{cout, s} = a + b`` keeps
    the carry bit).  Widths, signedness and elaboration-time constants
    are resolved now, and every runtime object is referenced through an
    integer slot into the bind-time ``frame`` tuple — the same compiled
    program runs against any elaboration whose frame it is bound to.
    Results are memoised per lowering context, keyed by the value
    ``(expr, ctx_width)``: AST nodes store their hash and the parser
    shares equal subtrees, so a repeated expression costs one dict probe
    that ends at an identity check, and an equal one built elsewhere (a
    lockstep-widened dump line) hits as well.  Leaves are shared by value
    too: equal identifiers get one read closure, and equal constants one
    constant closure (:meth:`LowerCtx.const_fn`).
    A left-deep run of context-determined operators such as a long sum
    lowers, and runs, in a loop (:func:`_compile_arith_chain`), so
    neither recurses once per operator.
    """
    cache = ctx._expr_cache
    key = (expr, ctx_width)
    fn = cache.get(key)
    if fn is None:
        fn = _compile_expr(expr, ctx, ctx_width)
        cache[key] = fn
    return fn


def _read_closure(name: str, ctx: LowerCtx):
    """The closure reading ``name`` as a value, one per name per
    program.  Skipping the lookup on a repeat read loses no fact: the
    first read recorded it, and facts are never dropped."""
    fn = ctx._read_fns.get(name)
    if fn is None:
        obj = ctx.lookup(name)
        if isinstance(obj, Logic):
            fn = ctx.const_fn(obj.width, obj.val, obj.xmask)
        elif isinstance(obj, _signal_type()):
            i = ctx.obj_slot(name)

            def fn(frame):
                return frame[i].value
        else:
            raise ElaborationError(f"cannot read {name!r} as a value")
        ctx._read_fns[name] = fn
    return fn


def _result_width(expr: ast.Expr, scope: "Scope",
                  ctx_width: int | None) -> int:
    """Static width of the values ``compile_expr(expr, scope,
    ctx_width)`` produces.

    Operators with context-determined operands widen to ``max(self,
    ctx)``, all others are self-determined.  Used to elide no-op
    ``resize`` calls at compile time.
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
    """Compile ``expr`` in a ``width`` context, resized to ``width``
    (sign-extended when ``signed``).

    The trailing resize is elided when the compiled closure is statically
    known to produce ``width``-bit values already (``resize`` to the same
    width is the identity).
    """
    fn = compile_expr(expr, ctx, width)
    if _result_width(expr, ctx, width) == width:
        return fn
    return lambda frame: fn(frame).resize(width, signed)


def compile_expr_deferred(expr: ast.Expr, ctx: LowerCtx,
                          width: int | None = None, signed: bool = False):
    """:func:`compile_expr` (or :func:`compile_coerced`, given a
    ``width``), but a compile-time :class:`HdlError` becomes a closure
    that re-raises when *evaluated*.

    Used where the interpreter evaluates an expression conditionally
    (case labels, unselected ternary branches): the compiled engine must
    not fail on a branch the interpreter would never reach.
    """
    try:
        if width is None:
            return compile_expr(expr, ctx)
        return compile_coerced(expr, ctx, width, signed)
    except HdlError as exc:
        ctx.note_deferred(exc)

        def raise_deferred(frame, _exc=exc):
            # Shared instance: shed the previous raise's traceback so
            # repeated evaluations don't chain frames forever.
            _exc.__traceback__ = None
            _exc.__context__ = None
            raise _exc
        return raise_deferred


def _compile_expr(expr: ast.Expr, ctx: LowerCtx, ctx_width: int | None):
    if isinstance(expr, ast.Number):
        width = expr.width if expr.width is not None else 32
        return ctx.const_fn(width, expr.val, expr.xmask)

    if isinstance(expr, ast.Identifier):
        return _read_closure(expr.name, ctx)

    if isinstance(expr, ast.StringLit):
        data = expr.text.encode("latin-1", "replace")
        val = int.from_bytes(data, "big") if data else 0
        return ctx.const_fn(max(8 * len(data), 8), val)

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
        then = compile_expr_deferred(expr.then, ctx, w,
                                     signed_of(expr.then, ctx))
        other = compile_expr_deferred(expr.other, ctx, w,
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

    # Widths are checked after the operands compile, so a broken operand
    # still reports its own error first.
    if isinstance(expr, ast.Concat):
        fns = tuple(compile_expr(p, ctx) for p in expr.parts)
        check_width(sum(width_of(p, ctx) for p in expr.parts),
                    "concatenation")
        return lambda frame: Logic.concat([f(frame) for f in fns])

    if isinstance(expr, ast.Replicate):
        count = ctx.const_int(expr.count)
        if count < 1:
            raise SimulationError(f"replication count {count} must be >= 1")
        value = compile_expr(expr.value, ctx)
        check_width(count * width_of(expr.value, ctx), "replication")
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
    method = _REDUCTIONS.get(op)
    if method is not None:
        operand = compile_expr(expr.operand, ctx)
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
    if op in _CTX_ARITH:
        return _compile_arith_chain(_arith_chain(expr), ctx, ctx_width)
    w = max(width_of(expr.left, ctx), width_of(expr.right, ctx),
            ctx_width or 0)
    both = (signed_of(expr.left, ctx) and signed_of(expr.right, ctx))
    left = compile_coerced(expr.left, ctx, w, both)
    right = compile_coerced(expr.right, ctx, w, both)
    if op == "**":
        return lambda frame: left(frame).pow(right(frame), w)
    raise SimulationError(f"unsupported binary operator {op!r}")


def _compile_arith_chain(chain: Sequence[ast.Binary], ctx: LowerCtx,
                         ctx_width: int | None):
    """Lower a left-deep run of context-determined operators (see
    :func:`_arith_chain`; one operator is a run of one) in a loop.
    One operator keeps its direct closure; a longer run evaluates in one
    loop closure, not one nested closure per operator."""
    width, boths = _chain_shape(chain, ctx, ctx_width)
    first = compile_coerced(chain[0].left, ctx, width, boths[0])
    rights = [compile_coerced(node.right, ctx, width, both)
              for node, both in zip(chain, boths)]
    if len(chain) == 1:
        return _arith_closure(chain[0].op, first, rights[0], width, boths[0])
    # Each step's operator closure runs on a ``(value, right)`` pair.
    steps = tuple((_arith_closure(node.op, _LEFT, _RIGHT, width, both),
                   right) for node, right, both in zip(chain, rights, boths))

    def run(frame):
        value = first(frame)
        for step, right in steps:
            value = step((value, right(frame)))
        return value
    return run


_LEFT, _RIGHT = itemgetter(0), itemgetter(1)


def _arith_closure(op: str, left, right, w: int, both: bool):
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
    return lambda frame: left(frame).bxnor(right(frame))  # ^~ / ~^


def _compile_system_call(expr: ast.SystemCall, ctx: LowerCtx):
    name = expr.name
    if name == "$time":
        ctx.reads_time = True
        j = ctx.design_slot(name)
        return lambda frame: Logic.from_int(frame[j].runtime_time(), 64)
    if name in ("$signed", "$unsigned"):
        return compile_expr(expr.args[0], ctx)
    if name in ("$random", "$urandom"):
        j = ctx.design_slot(name)
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
        j = ctx.design_slot(name)
        return lambda frame: Logic.from_int(frame[j].runtime_fopen(text), 32)
    raise SimulationError(f"unsupported system function {name!r}")


# ----------------------------------------------------------------------
# Constant folding (elaboration-time values)
# ----------------------------------------------------------------------
def fold(expr: ast.Expr, scope: "Scope",
         into: LowerCtx | None = None) -> Logic:
    """Evaluate an elaboration-time constant in ``scope``.

    A constant (IEEE 1364-2005 5.2) reads only literals, parameters and
    constant system functions, so its lowering allocates no frame slot
    and defers no :class:`NotConstantError` (from a nested bound or
    count in a ternary branch); one that does either raises.  A
    fold made while ``into`` lowers a program merges its facts into
    ``into``, also when it raises, so a program that defers the error
    stays keyed on the names the constant resolved.

    >>> from repro.hdl.elaborate import elaborate
    >>> from repro.hdl.parser import parse_source
    >>> (spec,) = elaborate(parse_source(
    ...     "module m; parameter P = 3; reg [3:0] r = 4'd2;"
    ...     ' initial $display("%d %d", P + 1, r + 1); endmodule'), "m"
    ... ).processes
    >>> p_plus_1, r_plus_1 = spec.body.args[1:]
    >>> fold(p_plus_1, spec.scope).to_uint()
    4
    >>> fold(r_plus_1, spec.scope)
    Traceback (most recent call last):
    ...
    repro.hdl.errors.NotConstantError: 'r' is not a constant
    """
    if isinstance(expr, ast.Number):  # most constants: skip the lowering
        width = expr.width if expr.width is not None else 32
        return Logic(width, expr.val, expr.xmask)
    ctx = LowerCtx(scope)
    try:
        fn = compile_expr(expr, ctx)
        if ctx.not_constant is not None:
            raise ctx.not_constant
        if ctx.slot_specs:
            raise NotConstantError(
                f"{ctx.slot_specs[0][1]!r} is not a constant")
        if ctx.prefix_sensitive:
            _reject_unlowered_reads(expr, ctx)
    finally:
        if into is not None:
            for name, fact in ctx.facts.items():
                into.facts.setdefault(name, fact)
    return fn(())


def _reject_unlowered_reads(expr: ast.Expr, ctx: LowerCtx) -> None:
    """Raise for a variable or runtime hook that a constant reads in a
    part the lowering deferred before reaching it.

    Sizing folds part-select bounds before the operands lower, so in
    ``P ? 1 : (1 == b[X:0] + $random)`` an undefined ``X`` fails the
    unselected branch before anything reads ``b`` or calls
    ``$random``.  Names are checked in sorted order (hooks, which start
    with ``$``, first), so the message does not depend on the hash seed.
    """
    hooks = sorted(_runtime_hooks(expr))
    if hooks:
        raise NotConstantError(f"{hooks[0]!r} is not a constant")
    names: set[str] = set()
    collect_expr_reads(expr, names)
    for name in sorted(names):
        ctx._touch(name)
        if ctx.facts[name][0] in ("sig", "mem"):
            raise NotConstantError(f"{name!r} is not a constant")


#: System functions that read the running simulation (see
#: :func:`_compile_system_call`): never part of a constant.
_RUNTIME_HOOKS = frozenset({"$time", "$random", "$urandom", "$fopen"})


def _runtime_hooks(expr: ast.Expr) -> set[str]:
    """The runtime hooks ``expr`` calls.  The walk keeps its own stack,
    so a 3,000-term sum does not recurse."""
    hooks: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.SystemCall) and node.name in _RUNTIME_HOOKS:
            hooks.add(node.name)
        for value in node._values(node):
            if isinstance(value, ast.Node):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(value)
    return hooks


# ----------------------------------------------------------------------
# Static read-set collection (for @(*) and continuous assignments)
# ----------------------------------------------------------------------
def collect_expr_reads(expr: ast.Expr, out: set[str]) -> None:
    while isinstance(expr, ast.Binary):  # left operand chains: loop
        collect_expr_reads(expr.right, out)
        expr = expr.left
    if isinstance(expr, ast.Identifier):
        out.add(expr.name)
    elif isinstance(expr, (ast.Number, ast.StringLit)):
        pass
    elif isinstance(expr, ast.Unary):
        collect_expr_reads(expr.operand, out)
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
