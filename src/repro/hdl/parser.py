"""Recursive-descent parser for the supported Verilog subset."""

from __future__ import annotations

import threading
from typing import Sequence

from ..util import LruCache
from . import ast
from .errors import FailureShape, VerilogSyntaxError
from .lexer import position, tokenize
from .tokens import Token, TokenKind

# Binary operator precedence, lowest first.  The ternary operator is handled
# separately above level 0.
_BINARY_LEVELS: tuple[tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^", "^~", "~^"),
    ("&",),
    ("==", "!=", "===", "!=="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", "<<<", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
    ("**",),
)

#: Operator -> precedence level, for the precedence-climbing expression
#: parser (one loop instead of one recursive call per level).
_BINARY_LEVEL: dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}
_MAX_BINARY_LEVEL = len(_BINARY_LEVELS)

_UNARY_OPS = frozenset(
    ("!", "~", "&", "~&", "|", "~|", "^", "~^", "^~", "+", "-"))

#: Deepest nesting the parser accepts, counting nested expressions
#: (parentheses, concatenations, selects, call arguments, ternary
#: branches), unary operators, tighter-binding operands and statements.
#: Each level costs at most six Python frames, so a deeper source fails
#: with a positioned :class:`VerilogSyntaxError` long before it could
#: exhaust the interpreter's recursion limit.  No source parsed by the
#: digest-pinned campaign items (seed-0 Table I, CMB at seeds 0-9)
#: nests deeper than 16.
MAX_NESTING_DEPTH = 64

# Bound once: TokenKind attribute lookups add up in the token helpers,
# which run once or more per token on the cold-parse path.
_PUNCT = TokenKind.PUNCT
_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_EOF = TokenKind.EOF


class Parser:
    """One parse of one token stream.

    The parser hash-conses the tree it builds: equal subtrees of the
    text are one object, so a driver that repeats a stimulus or dump
    line dozens of times holds it once, and lowering (which memoizes by
    node) compiles it once.  Each node is looked up before it is built,
    keyed on its class, its scalar fields and its children's ids, so a
    repeat costs one hash of a tuple of ints and strings and builds
    nothing.  The table lives as long as this parser: texts share no
    nodes, and no table outlives a parse.
    """

    def __init__(self, tokens: Sequence[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.depth = 0
        # key -> node or child tuple (see _make and _tuple).
        self._built: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    # ``self.pos`` never passes the trailing EOF token (_advance stops
    # there), so the zero-offset peek — the overwhelmingly common case —
    # can index directly without clamping.
    def _peek(self, offset: int = 0) -> Token:
        if offset:
            i = min(self.pos + offset, len(self.tokens) - 1)
            return self.tokens[i]
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def _error(self, message: str) -> VerilogSyntaxError:
        """An error at the current token, positioned in the source."""
        line, column = position(self.source, self.pos)
        return VerilogSyntaxError(message, line, column)

    def _expect_punct(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _PUNCT or tok.text != text:
            raise self._error(f"expected {text!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def _expect_keyword(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _KEYWORD or tok.text != word:
            raise self._error(f"expected {word!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def _expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind is not _IDENT:
            raise self._error(f"expected identifier, found {tok.text!r}")
        self.pos += 1
        return tok.text

    def _accept_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is _PUNCT and tok.text == text:
            self.pos += 1
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is _KEYWORD and tok.text == word:
            self.pos += 1
            return True
        return False

    # A nesting level is entered with ``_enter()`` and left with
    # ``self.depth -= 1``; a raised error abandons the parser, so the
    # count needs no unwinding.
    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self._error(f"nesting deeper than {MAX_NESTING_DEPTH} "
                              f"levels")

    # Hash-consing (see the class docstring).  Children are shared
    # before their parent is looked up, so equal children have equal
    # ids; the node a key maps to holds those children, so no id in a
    # live key can be reused.
    def _make(self, key: tuple, cls, *args):
        node = self._built.get(key)
        if node is None:
            node = self._built[key] = cls(*args)
        return node

    def _tuple(self, items) -> tuple:
        """``tuple(items)``, shared like a node: child lists key their
        parent by one id."""
        key = (tuple, *map(id, items))
        shared = self._built.get(key)
        if shared is None:
            shared = self._built[key] = tuple(items)
        return shared

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_source(self) -> ast.SourceFile:
        modules = []
        while self._peek().kind is not TokenKind.EOF:
            modules.append(self.parse_module())
        return ast.SourceFile(tuple(modules))

    def parse_module(self) -> ast.Module:
        self._expect_keyword("module")
        name = self._expect_ident()
        ports: list[ast.Port] = []
        header_names: list[str] = []
        items: list[ast.ModuleItem] = []

        if self._accept_punct("("):
            if not self._peek().is_punct(")"):
                if self._peek().is_keyword("input") or \
                        self._peek().is_keyword("output") or \
                        self._peek().is_keyword("inout"):
                    ports.extend(self._parse_ansi_ports())
                else:
                    header_names.append(self._expect_ident())
                    while self._accept_punct(","):
                        header_names.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_punct(";")

        port_map = {p.name: p for p in ports}
        while not self._peek().is_keyword("endmodule"):
            items.extend(self._parse_module_item(port_map, header_names))
        self._expect_keyword("endmodule")

        if header_names:
            ordered = []
            for pname in header_names:
                if pname not in port_map:
                    raise self._error(
                        f"port {pname!r} has no direction declaration")
                ordered.append(port_map[pname])
            ports = ordered
        return ast.Module(name, tuple(ports), tuple(items))

    def _parse_ansi_ports(self) -> list[ast.Port]:
        ports: list[ast.Port] = []
        direction = None
        is_reg = False
        signed = False
        rng = None
        while True:
            tok = self._peek()
            if tok.is_keyword("input") or tok.is_keyword("output") or \
                    tok.is_keyword("inout"):
                direction = self._advance().text
                is_reg = False
                signed = False
                rng = None
                if self._accept_keyword("wire"):
                    pass
                elif self._accept_keyword("reg"):
                    is_reg = True
                if self._accept_keyword("signed"):
                    signed = True
                if self._peek().is_punct("["):
                    rng = self._parse_range()
            if direction is None:
                raise self._error("expected port direction")
            pname = self._expect_ident()
            ports.append(ast.Port(direction, pname, rng, is_reg, signed))
            if not self._accept_punct(","):
                return ports

    # ------------------------------------------------------------------
    # Module items
    # ------------------------------------------------------------------
    def _parse_module_item(self, port_map: dict[str, ast.Port],
                           header_names: list[str]) -> list[ast.ModuleItem]:
        tok = self._peek()

        if tok.is_keyword("input") or tok.is_keyword("output") or \
                tok.is_keyword("inout"):
            self._parse_body_port_decl(port_map)
            return []
        if tok.is_keyword("wire") or tok.is_keyword("reg") or \
                tok.is_keyword("integer"):
            return [self._parse_net_decl()]
        if tok.is_keyword("parameter") or tok.is_keyword("localparam"):
            return self._parse_param_decl()
        if tok.is_keyword("assign"):
            return [self._parse_continuous_assign()]
        if tok.is_keyword("always"):
            return [self._parse_always()]
        if tok.is_keyword("initial"):
            self._advance()
            return [ast.InitialBlock(self.parse_statement())]
        if tok.kind is TokenKind.IDENT:
            return [self._parse_instance()]
        raise self._error(f"unexpected token {tok.text!r} in module body")

    def _parse_body_port_decl(self, port_map: dict[str, ast.Port]) -> None:
        direction = self._advance().text
        is_reg = False
        signed = False
        if self._accept_keyword("wire"):
            pass
        elif self._accept_keyword("reg"):
            is_reg = True
        if self._accept_keyword("signed"):
            signed = True
        rng = self._parse_range() if self._peek().is_punct("[") else None
        names = [self._expect_ident()]
        while self._accept_punct(","):
            names.append(self._expect_ident())
        self._expect_punct(";")
        for name in names:
            port_map[name] = ast.Port(direction, name, rng, is_reg, signed)

    def _parse_net_decl(self) -> ast.NetDecl:
        kind = self._advance().text
        signed = False
        rng = None
        if kind != "integer":
            if self._accept_keyword("signed"):
                signed = True
            if self._peek().is_punct("["):
                rng = self._parse_range()
        names: list[str] = []
        inits: list[ast.Expr | None] = []
        array = None
        while True:
            names.append(self._expect_ident())
            if self._peek().is_punct("["):
                array = self._parse_range()
            if self._accept_punct("="):
                inits.append(self.parse_expression())
            else:
                inits.append(None)
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if array is not None and len(names) > 1:
            raise self._error("array declarations must declare one name")
        return ast.NetDecl(kind, tuple(names), rng, signed, array,
                           tuple(inits))

    def _parse_param_decl(self) -> list[ast.ParamDecl]:
        local = self._advance().text == "localparam"
        if self._peek().is_punct("["):
            self._parse_range()  # parameter ranges are ignored
        decls = []
        while True:
            name = self._expect_ident()
            self._expect_punct("=")
            decls.append(ast.ParamDecl(name, self.parse_expression(), local))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return decls

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        self._expect_keyword("assign")
        target = self.parse_lvalue()
        self._expect_punct("=")
        value = self.parse_expression()
        self._expect_punct(";")
        return ast.ContinuousAssign(target, value)

    def _parse_always(self) -> ast.AlwaysBlock:
        self._expect_keyword("always")
        events: tuple[ast.EventExpr, ...] | None = ()
        if self._accept_punct("@"):
            events = self._parse_event_list()
        body = self.parse_statement()
        return ast.AlwaysBlock(events, body)

    def _parse_event_list(self) -> tuple[ast.EventExpr, ...] | None:
        """Parse the event list after ``@``; returns ``None`` for ``@*``."""
        if self._accept_punct("*"):
            return None
        self._expect_punct("(")
        if self._accept_punct("*"):
            self._expect_punct(")")
            return None
        events = [self._parse_event_expr()]
        while True:
            if self._accept_punct(","):
                events.append(self._parse_event_expr())
            elif self._accept_keyword("or"):
                events.append(self._parse_event_expr())
            else:
                break
        self._expect_punct(")")
        return self._tuple(events)

    def _parse_event_expr(self) -> ast.EventExpr:
        if self._accept_keyword("posedge"):
            edge = "pos"
        elif self._accept_keyword("negedge"):
            edge = "neg"
        else:
            edge = "any"
        signal = self.parse_expression()
        return self._make((ast.EventExpr, edge, id(signal)), ast.EventExpr,
                          edge, signal)

    def _parse_instance(self) -> ast.Instance:
        module = self._expect_ident()
        parameters: list[tuple[str, ast.Expr]] = []
        if self._accept_punct("#"):
            self._expect_punct("(")
            while not self._peek().is_punct(")"):
                self._expect_punct(".")
                pname = self._expect_ident()
                self._expect_punct("(")
                parameters.append((pname, self.parse_expression()))
                self._expect_punct(")")
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        name = self._expect_ident()
        self._expect_punct("(")
        connections: list[tuple[str | None, ast.Expr | None]] = []
        if not self._peek().is_punct(")"):
            while True:
                if self._accept_punct("."):
                    pname = self._expect_ident()
                    self._expect_punct("(")
                    if self._peek().is_punct(")"):
                        connections.append((pname, None))
                    else:
                        connections.append((pname, self.parse_expression()))
                    self._expect_punct(")")
                else:
                    connections.append((None, self.parse_expression()))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.Instance(module, name, tuple(connections),
                            tuple(parameters))

    def _parse_range(self) -> ast.Range:
        self._expect_punct("[")
        msb = self.parse_expression()
        self._expect_punct(":")
        lsb = self.parse_expression()
        self._expect_punct("]")
        return self._make((ast.Range, id(msb), id(lsb)), ast.Range, msb, lsb)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Stmt:
        self._enter()
        stmt = self._parse_statement()
        self.depth -= 1
        return stmt

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        kind = tok.kind
        if kind is _IDENT:  # the common case: an assignment
            assign = self._parse_assign()
            self._expect_punct(";")
            return assign
        if kind is TokenKind.SYSTEM_IDENT:
            return self._parse_system_task()

        if tok.is_keyword("begin"):
            self._advance()
            name = None
            if self._accept_punct(":"):
                name = self._expect_ident()
            stmts = []
            while not self._peek().is_keyword("end"):
                if self._peek().kind is TokenKind.EOF:
                    raise self._error("unterminated begin/end block")
                stmts.append(self.parse_statement())
            self._advance()
            stmts = self._tuple(stmts)
            return self._make((ast.Block, id(stmts), name), ast.Block,
                              stmts, name)

        if tok.is_keyword("if"):
            self._advance()
            self._expect_punct("(")
            cond = self.parse_expression()
            self._expect_punct(")")
            then = self.parse_statement()
            other = None
            if self._accept_keyword("else"):
                other = self.parse_statement()
            return self._make((ast.If, id(cond), id(then), id(other)),
                              ast.If, cond, then, other)

        if tok.is_keyword("case") or tok.is_keyword("casez") or \
                tok.is_keyword("casex"):
            return self._parse_case()

        if tok.is_keyword("for"):
            self._advance()
            self._expect_punct("(")
            init = self._parse_plain_assign()
            self._expect_punct(";")
            cond = self.parse_expression()
            self._expect_punct(";")
            step = self._parse_plain_assign()
            self._expect_punct(")")
            body = self.parse_statement()
            return self._make((ast.For, id(init), id(cond), id(step),
                               id(body)), ast.For, init, cond, step, body)

        if tok.is_keyword("while"):
            self._advance()
            self._expect_punct("(")
            cond = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            return self._make((ast.While, id(cond), id(body)), ast.While,
                              cond, body)

        if tok.is_keyword("repeat"):
            self._advance()
            self._expect_punct("(")
            count = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            return self._make((ast.Repeat, id(count), id(body)), ast.Repeat,
                              count, body)

        if tok.is_keyword("forever"):
            self._advance()
            body = self.parse_statement()
            return self._make((ast.Forever, id(body)), ast.Forever, body)

        if tok.is_punct("#"):
            self._advance()
            amount = self._parse_delay_amount()
            inner = None if self._accept_punct(";") else self.parse_statement()
            return self._make((ast.DelayStmt, id(amount), id(inner)),
                              ast.DelayStmt, amount, inner)

        if tok.is_punct("@"):
            self._advance()
            events = self._parse_event_list()
            inner = None if self._accept_punct(";") else self.parse_statement()
            return self._make((ast.EventControl, id(events), id(inner)),
                              ast.EventControl, events, inner)

        if tok.is_punct(";"):
            self._advance()
            return self._make((ast.NullStmt,), ast.NullStmt)

        # Assignment to a concatenation, or a syntax error.
        assign = self._parse_assign()
        self._expect_punct(";")
        return assign

    def _parse_delay_amount(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return self._number(tok)
        if tok.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return self._make((ast.Identifier, tok.text), ast.Identifier,
                              tok.text)
        raise self._error("expected delay amount")

    def _parse_case(self) -> ast.Case:
        kind = self._advance().text
        self._expect_punct("(")
        subject = self.parse_expression()
        self._expect_punct(")")
        items: list[ast.CaseItem] = []
        while not self._peek().is_keyword("endcase"):
            if self._peek().kind is TokenKind.EOF:
                raise self._error("unterminated case statement")
            if self._accept_keyword("default"):
                self._accept_punct(":")
                labels = ()
            else:
                labels = [self.parse_expression()]
                while self._accept_punct(","):
                    labels.append(self.parse_expression())
                self._expect_punct(":")
                labels = self._tuple(labels)
            body = self.parse_statement()
            items.append(self._make((ast.CaseItem, id(labels), id(body)),
                                    ast.CaseItem, labels, body))
        self._advance()
        items = self._tuple(items)
        return self._make((ast.Case, kind, id(subject), id(items)), ast.Case,
                          kind, subject, items)

    def _parse_plain_assign(self) -> ast.BlockingAssign:
        target = self.parse_lvalue()
        self._expect_punct("=")
        return self._assign(ast.BlockingAssign, target)

    def _assign(self, cls, target: ast.LValue) -> ast.Stmt:
        value = self.parse_expression()
        return self._make((cls, id(target), id(value)), cls, target, value)

    def _parse_assign(self) -> ast.Stmt:
        target = self.parse_lvalue()
        if self._accept_punct("<="):
            return self._assign(ast.NonblockingAssign, target)
        self._expect_punct("=")
        if self._peek().is_punct("#"):
            # Intra-assignment delay: treated as delay-then-assign, which is
            # equivalent for the driver templates that use it.
            self._advance()
            amount = self._parse_delay_amount()
            inner = self._assign(ast.BlockingAssign, target)
            return self._make((ast.DelayStmt, id(amount), id(inner)),
                              ast.DelayStmt, amount, inner)
        return self._assign(ast.BlockingAssign, target)

    def _parse_system_task(self) -> ast.SysTaskCall:
        name = self._advance().text
        args = self._parse_call_args()
        self._expect_punct(";")
        return self._make((ast.SysTaskCall, name, id(args)), ast.SysTaskCall,
                          name, args)

    def _parse_call_args(self) -> tuple:
        """The optional ``(arg, ...)`` list of a system task or function."""
        if not self._accept_punct("("):
            return ()
        args: list[ast.Expr] = []
        if not self._peek().is_punct(")"):
            args.append(self.parse_expression())
            while self._accept_punct(","):
                args.append(self.parse_expression())
        self._expect_punct(")")
        return self._tuple(args)

    # ------------------------------------------------------------------
    # L-values
    # ------------------------------------------------------------------
    def parse_lvalue(self) -> ast.LValue:
        if self._accept_punct("{"):
            self._enter()
            parts = [self.parse_lvalue()]
            while self._accept_punct(","):
                parts.append(self.parse_lvalue())
            self._expect_punct("}")
            self.depth -= 1
            parts = self._tuple(parts)
            return self._make((ast.LvConcat, id(parts)), ast.LvConcat, parts)
        name = self._expect_ident()
        if self._accept_punct("["):
            first = self.parse_expression()
            if self._accept_punct(":"):
                second = self.parse_expression()
                self._expect_punct("]")
                return self._make((ast.LvPart, name, id(first), id(second)),
                                  ast.LvPart, name, first, second)
            self._expect_punct("]")
            return self._make((ast.LvIndex, name, id(first)), ast.LvIndex,
                              name, first)
        return self._make((ast.LvIdent, name), ast.LvIdent, name)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        """Parse one expression; the expression itself is one nesting
        level (see :data:`MAX_NESTING_DEPTH`).

        >>> src = "(a + b) * c"
        >>> Parser(tokenize(src), src).parse_expression().op
        '*'
        >>> too_deep = "(" * MAX_NESTING_DEPTH + "a"
        >>> Parser(tokenize(too_deep), too_deep).parse_expression()
        Traceback (most recent call last):
            ...
        repro.hdl.errors.VerilogSyntaxError: line 1:65: nesting deeper than 64 levels
        """
        self._enter()
        expr = self._parse_binary(0)
        if self._accept_punct("?"):
            then = self.parse_expression()
            self._expect_punct(":")
            other = self.parse_expression()
            expr = self._make((ast.Ternary, id(expr), id(then), id(other)),
                              ast.Ternary, expr, then, other)
        self.depth -= 1
        return expr

    def _parse_binary(self, min_level: int) -> ast.Expr:
        # Precedence climbing: equivalent tree shape to the classic
        # one-method-per-level cascade, but each operand costs one call
        # instead of one call per precedence level.
        left = self._parse_unary()
        tokens = self.tokens
        levels = _BINARY_LEVEL
        punct = TokenKind.PUNCT
        make = self._make
        while True:
            tok = tokens[self.pos]
            if tok.kind is not punct:
                return left
            level = levels.get(tok.text)
            if level is None or level < min_level:
                return left
            self.pos += 1
            self._enter()
            right = self._parse_binary(level + 1)
            self.depth -= 1
            op = tok.text
            left = make((ast.Binary, op, id(left), id(right)), ast.Binary, op,
                        left, right)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _UNARY_OPS:
            self._advance()
            self._enter()
            operand = self._parse_unary()
            self.depth -= 1
            return self._make((ast.Unary, tok.text, id(operand)), ast.Unary,
                              tok.text, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()

        if tok.kind is TokenKind.IDENT:
            name = self._advance().text
            if self._accept_punct("["):
                first = self.parse_expression()
                if self._accept_punct(":"):
                    second = self.parse_expression()
                    self._expect_punct("]")
                    return self._make(
                        (ast.PartSelect, name, id(first), id(second)),
                        ast.PartSelect, name, first, second)
                self._expect_punct("]")
                return self._make((ast.Index, name, id(first)), ast.Index,
                                  name, first)
            return self._make((ast.Identifier, name), ast.Identifier, name)

        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return self._number(tok)

        if tok.kind is TokenKind.STRING:
            self._advance()
            return self._make((ast.StringLit, tok.text), ast.StringLit,
                              tok.text)

        if tok.kind is TokenKind.SYSTEM_IDENT:
            self._advance()
            args = self._parse_call_args()
            return self._make((ast.SystemCall, tok.text, id(args)),
                              ast.SystemCall, tok.text, args)

        if tok.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr

        if tok.is_punct("{"):
            self._advance()
            first = self.parse_expression()
            if self._accept_punct("{"):
                # Replication: {N{value}}
                value = self.parse_expression()
                self._expect_punct("}")
                self._expect_punct("}")
                return self._make((ast.Replicate, id(first), id(value)),
                                  ast.Replicate, first, value)
            parts = [first]
            while self._accept_punct(","):
                parts.append(self.parse_expression())
            self._expect_punct("}")
            parts = self._tuple(parts)
            return self._make((ast.Concat, id(parts)), ast.Concat, parts)

        raise self._error(f"unexpected token {tok.text!r} in expression")

    def _number(self, tok: Token) -> ast.Number:
        value = tok.value  # (width, val, xmask, signed)
        return self._make((ast.Number, value), ast.Number,
                          *value)  # type: ignore[misc]


def parse_source(source: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`SourceFile`."""
    parser = Parser(tokenize(source), source)
    return parser.parse_source()


_parse_cache = LruCache(capacity=4096)

# Finished trees by value, most recently used last, bounded like the
# text cache.  A plain dict keeps the order: a hit is popped (one walk
# of two equal trees; an OrderedDict's pop walks them three times) and
# re-inserted at the end, which finds no equal key and walks nothing.
_trees: dict = {}
_trees_lock = threading.Lock()


def _shared_tree(tree: ast.SourceFile) -> ast.SourceFile:
    """The held tree equal to ``tree``, or ``tree`` itself, now held."""
    with _trees_lock:
        shared = _trees.pop(tree, None)
        if shared is None:
            shared = tree
            if len(_trees) >= _parse_cache.capacity:
                del _trees[next(iter(_trees))]
        _trees[shared] = shared
    return shared


def parse_source_cached(source: str) -> ast.SourceFile:
    """Text-keyed parse cache whose texts share trees by value.

    The AST is immutable (frozen dataclasses), so sharing one tree
    between callers is safe.  Evaluation pipelines re-parse the same
    driver/DUT text thousands of times (validator R/S matrices, AutoEval
    mutant runs); this cache makes re-parsing free.  Each held tree is
    hash-consed (see :class:`Parser`), so a driver's repeated stimulus
    and dump lines are held as one subtree each.

    A new text is lexed and parsed once, and then its tree is looked up
    by value among the trees already held: texts that differ only in
    comments, whitespace or literal spelling get one tree object, so
    callers can tell equal designs apart from different ones by
    identity (the simulation layer runs each distinct tree once).

    >>> first = parse_source_cached(
    ...     "// attempt 1\\nmodule m(output o); assign o = 4'd5; endmodule")
    >>> second = parse_source_cached(
    ...     "// attempt 2\\nmodule m(output o);\\n  assign o = 4'b0101;\\n"
    ...     "endmodule")
    >>> first is second
    True

    A text that fails to lex or parse is held too, as its error's
    :class:`~repro.hdl.errors.FailureShape`: later calls re-raise an
    identically rendered :class:`VerilogSyntaxError` without lexing
    again, so a broken driver costs one front-end pass however many
    checks look at it.

    >>> try:
    ...     parse_source_cached("module m(; endmodule")
    ... except VerilogSyntaxError as exc:
    ...     print(exc)
    line 1:10: expected identifier, found ';'
    >>> parse_cache_stats()["failures"] >= 1
    True
    """
    entry = _parse_cache.get(source)
    if entry is None:
        try:
            entry = Parser(tokenize(source), source).parse_source()
        except VerilogSyntaxError as exc:
            _parse_cache.insert(source, FailureShape(exc))
            raise
        entry = _parse_cache.insert(source, _shared_tree(entry))
    if isinstance(entry, FailureShape):
        entry.reraise()
    return entry


def clear_parse_cache() -> None:
    _parse_cache.clear()
    with _trees_lock:
        _trees.clear()


def parse_cache_stats() -> dict:
    """``hits`` / ``misses`` / ``size`` (ASTs and failures together),
    plus ``failures``: how many held entries are failures."""
    stats = _parse_cache.stats()
    stats["failures"] = sum(isinstance(entry, FailureShape)
                            for entry in _parse_cache.export().values())
    return stats


def parse_module(source: str) -> ast.Module:
    """Parse source expected to contain exactly one module."""
    sf = parse_source(source)
    if len(sf.modules) != 1:
        raise VerilogSyntaxError(
            f"expected exactly one module, found {len(sf.modules)}")
    return sf.modules[0]
