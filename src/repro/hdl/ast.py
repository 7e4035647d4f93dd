"""Abstract syntax tree for the supported Verilog subset.

The node set covers the synthesisable constructs used by the benchmark
circuits plus the behavioural constructs the generated testbench drivers
need (``initial`` blocks, delays, event controls, system tasks).

Nodes are frozen, slotted dataclasses that hash and compare by value,
so equal process bodies from different source texts key one compiled
program.  Neither operation walks the tree recursively: each node
computes its hash once, when it is built, from its class, its scalar
fields and its children's stored hashes, and ``==`` compares two trees
with its own stack, returning at once on identical subtrees, so a
3,000-term sum hashes in constant time and compares without recursing.
The parser builds each distinct subtree of a text once (see
:class:`repro.hdl.parser.Parser`), so comparisons within one text
usually end at the identity check.

Stored hashes mix in string hashes, which change with
``PYTHONHASHSEED``, so a node never carries its hash out of the process:
pickling rebuilds it from its fields, and the rebuilt node hashes afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional


class Node:
    """Base of every AST node: a stored hash and a non-recursive ``==``."""
    __slots__ = ("_hash",)

    #: ``_values(node)``: the node's field values as a tuple, in field
    #: order (set per class by :func:`_node`).
    _values = staticmethod(lambda node: ())

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash",
                           hash((self.__class__, self._values(self))))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if isinstance(a, Node):
                if b.__class__ is not a.__class__ or b._hash != a._hash:
                    return False
                pending.extend(zip(a._values(a), b._values(b)))
            elif isinstance(a, tuple):
                if not isinstance(b, tuple) or len(a) != len(b):
                    return False
                pending.extend(zip(a, b))
            elif a != b:
                return False
        return True

    def __reduce__(self):
        return self.__class__, self._values(self)


def _node(cls):
    """Make ``cls`` a frozen, slotted dataclass node (see :class:`Node`)."""
    cls = dataclass(frozen=True, eq=False, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))
    if len(names) > 1:
        cls._values = staticmethod(attrgetter(*names))
    elif names:
        get = attrgetter(names[0])
        cls._values = staticmethod(lambda node: (get(node),))
    return cls


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr(Node):
    """Base class for expression nodes."""
    __slots__ = ()


@_node
class Number(Expr):
    width: Optional[int]        # None = unsized (32-bit) decimal
    val: int
    xmask: int = 0
    signed: bool = False


@_node
class Identifier(Expr):
    name: str


@_node
class StringLit(Expr):
    text: str


@_node
class Unary(Expr):
    op: str                     # ! ~ & | ^ ~& ~| ~^ + -
    operand: Expr


@_node
class Binary(Expr):
    op: str                     # arithmetic / logical / relational / shifts
    left: Expr
    right: Expr


@_node
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@_node
class Concat(Expr):
    parts: tuple[Expr, ...]


@_node
class Replicate(Expr):
    count: Expr
    value: Expr


@_node
class Index(Expr):
    """Bit select or memory-word select: ``name[expr]``."""
    base: str
    index: Expr


@_node
class PartSelect(Expr):
    """Constant part select: ``name[msb:lsb]``."""
    base: str
    msb: Expr
    lsb: Expr


@_node
class SystemCall(Expr):
    """System function in expression position, e.g. ``$time``."""
    name: str
    args: tuple[Expr, ...] = ()


# ----------------------------------------------------------------------
# L-values
# ----------------------------------------------------------------------
class LValue(Node):
    __slots__ = ()


@_node
class LvIdent(LValue):
    name: str


@_node
class LvIndex(LValue):
    name: str
    index: Expr


@_node
class LvPart(LValue):
    name: str
    msb: Expr
    lsb: Expr


@_node
class LvConcat(LValue):
    parts: tuple[LValue, ...]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Stmt(Node):
    __slots__ = ()


@_node
class Block(Stmt):
    stmts: tuple[Stmt, ...]
    name: Optional[str] = None


@_node
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@_node
class CaseItem(Node):
    labels: tuple[Expr, ...]    # empty tuple marks the default item
    body: Stmt


@_node
class Case(Stmt):
    kind: str                   # "case" | "casez" | "casex"
    subject: Expr
    items: tuple[CaseItem, ...]


@_node
class For(Stmt):
    init: "BlockingAssign"
    cond: Expr
    step: "BlockingAssign"
    body: Stmt


@_node
class While(Stmt):
    cond: Expr
    body: Stmt


@_node
class Repeat(Stmt):
    count: Expr
    body: Stmt


@_node
class Forever(Stmt):
    body: Stmt


@_node
class BlockingAssign(Stmt):
    target: LValue
    value: Expr


@_node
class NonblockingAssign(Stmt):
    target: LValue
    value: Expr


@_node
class DelayStmt(Stmt):
    """``#N stmt`` — the statement may be empty (``#N;``)."""
    amount: Expr
    stmt: Optional[Stmt] = None


@_node
class EventExpr(Node):
    edge: str                   # "pos" | "neg" | "any"
    signal: Expr


@_node
class EventControl(Stmt):
    """``@(...) stmt`` — ``events=None`` encodes ``@(*)``."""
    events: Optional[tuple[EventExpr, ...]]
    stmt: Optional[Stmt] = None


@_node
class SysTaskCall(Stmt):
    name: str
    args: tuple[Expr, ...] = ()


@_node
class NullStmt(Stmt):
    pass


# ----------------------------------------------------------------------
# Module items
# ----------------------------------------------------------------------
class ModuleItem(Node):
    __slots__ = ()


@_node
class Range(Node):
    """Packed range ``[msb:lsb]`` (constant expressions)."""
    msb: Expr
    lsb: Expr


@_node
class Port(Node):
    direction: str              # "input" | "output" | "inout"
    name: str
    range: Optional[Range] = None
    is_reg: bool = False
    signed: bool = False


@_node
class NetDecl(ModuleItem):
    kind: str                   # "wire" | "reg" | "integer"
    names: tuple[str, ...]
    range: Optional[Range] = None
    signed: bool = False
    array: Optional[Range] = None       # 1-D unpacked array (memories)
    inits: tuple[Optional[Expr], ...] = ()


@_node
class ParamDecl(ModuleItem):
    name: str
    value: Expr
    local: bool = False


@_node
class ContinuousAssign(ModuleItem):
    target: LValue
    value: Expr


@_node
class AlwaysBlock(ModuleItem):
    """``events=None`` encodes ``always @(*)`` / ``always @*``;
    an empty tuple encodes an unconditioned ``always`` (e.g. clocks)."""
    events: Optional[tuple[EventExpr, ...]]
    body: Stmt


@_node
class InitialBlock(ModuleItem):
    body: Stmt


@_node
class Instance(ModuleItem):
    module: str
    name: str
    connections: tuple[tuple[Optional[str], Optional[Expr]], ...]
    parameters: tuple[tuple[str, Expr], ...] = ()


@_node
class Module(Node):
    name: str
    ports: tuple[Port, ...]
    items: tuple[ModuleItem, ...]


@_node
class SourceFile(Node):
    modules: tuple[Module, ...] = field(default_factory=tuple)

    def module(self, name: str) -> Module:
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(name)
