"""Character-at-a-time Verilog lexer: the front end's behavioural oracle.

:func:`repro.hdl.lexer.tokenize` scans with one master pattern.  This is
the original lexer it replaced, kept as the reference it must match
token for token, including every token and :class:`VerilogSyntaxError`
position.  Its tokens carry their ``line`` / ``column``; the runtime
stream works them out on demand.
``tests/hdl/test_lexer_diff_fuzz.py`` drives both through random token
soups and the golden corpus, ``tests/hdl/test_lexer.py`` runs its unit
cases on both, and the lexer speedup floor in
``benchmarks/bench_hdl_simulator.py`` times the two.
"""

from __future__ import annotations

import math

from repro.hdl.errors import VerilogSyntaxError
from repro.hdl.eval import MAX_SIGNAL_WIDTH
from repro.hdl.tokens import KEYWORDS, PUNCTUATIONS, TokenKind

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")

_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}
_HEX_DIGITS = "0123456789abcdef"


class Token:
    """One reference token: the runtime token's fields plus the
    ``line`` / ``column`` of its first character, which the runtime
    stream works out on demand instead."""

    __slots__ = ("kind", "text", "line", "column", "value")

    def __init__(self, kind: TokenKind, text: str, line: int, column: int,
                 value: object = None):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.value = value


class ReferenceLexer:
    """Character-at-a-time lexer: the behavioural oracle.

    Kept byte-for-byte compatible with
    :func:`repro.hdl.lexer.tokenize`; every intentional behaviour change
    must land in both implementations.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------
    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            tok = self._next_token()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------
    def _error(self, message: str) -> VerilogSyntaxError:
        return VerilogSyntaxError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self.source[self.pos] != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line = self.line
                self._advance(2)
                while self.pos < len(self.source):
                    if self.source[self.pos] == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise VerilogSyntaxError(
                        "unterminated block comment", start_line, 0)
            elif ch == "`":
                # Compiler directives (`timescale etc.) are skipped to end
                # of line; the subset does not use macros.
                while self.pos < len(self.source) and self.source[self.pos] != "\n":
                    self._advance()
            else:
                return

    # ------------------------------------------------------------------
    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", line, column)
        ch = self.source[self.pos]

        if ch in _IDENT_START:
            return self._lex_ident(line, column)
        if ch in _DIGITS or (ch == "'"
                             and self._peek(1).lower() in tuple("sbodh")):
            return self._lex_number(line, column)
        if ch == "$":
            return self._lex_system_ident(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        for punct in PUNCTUATIONS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_ident(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.source) and self.source[self.pos] in _IDENT_CONT:
            self._advance()
        text = self.source[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, column)

    def _lex_system_ident(self, line: int, column: int) -> Token:
        start = self.pos
        self._advance()  # $
        if self._peek() not in _IDENT_START:
            raise self._error("expected system task name after '$'")
        while self.pos < len(self.source) and self.source[self.pos] in _IDENT_CONT:
            self._advance()
        return Token(TokenKind.SYSTEM_IDENT, self.source[start:self.pos],
                     line, column)

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        out = []
        while True:
            if self.pos >= len(self.source):
                raise VerilogSyntaxError("unterminated string", line, column)
            ch = self.source[self.pos]
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                self._advance()
                out.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"'}.get(esc, esc))
            elif ch == "\n":
                raise VerilogSyntaxError("newline in string", line, column)
            else:
                out.append(ch)
                self._advance()
        text = "".join(out)
        return Token(TokenKind.STRING, text, line, column, value=text)

    # ------------------------------------------------------------------
    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        width: int | None = None

        if self.source[self.pos] in _DIGITS:
            digits = self._take_while(_DIGITS | {"_"})
            digits_end = self.pos
            self._skip_spaces_within_number()
            if self._peek() != "'":
                # Trailing spaces probed for a ``'`` are trivia, not part
                # of the literal's text.
                text = self.source[start:digits_end]
                value = self._decimal(digits.replace("_", ""), line, column)
                # Unsized decimal literals are 32-bit in Verilog.
                return Token(TokenKind.NUMBER, text, line, column,
                             value=(None, value & 0xFFFFFFFF, 0, True))
            # Width errors report at the start of the malformed literal
            # (the width digits), not at the quote the cursor sits on.
            significant = digits.replace("_", "").lstrip("0")
            if len(significant) > len(str(MAX_SIGNAL_WIDTH)):
                raise VerilogSyntaxError(
                    f"literal has unsupported width {significant}",
                    line, column)
            width = int(significant or "0")
            if width < 1:
                raise VerilogSyntaxError(
                    "literal width must be >= 1", line, column)
            self._check_width(width, line, column)

        # Based literal: '<s>?<base><digits>
        self._advance()  # '
        signed = False
        if self._peek().lower() == "s":
            signed = True
            self._advance()
        base_ch = self._peek().lower()
        if base_ch not in _BASE_BITS:
            raise self._error(f"invalid number base {base_ch!r}")
        self._advance()
        self._skip_spaces_within_number()

        if base_ch == "d":
            digits = self._take_while(_DIGITS | {"_"})
            if not digits.replace("_", ""):
                raise self._error("missing digits in decimal literal")
            val = self._decimal(digits.replace("_", ""), line, column)
            xmask = 0
            natural = max(val.bit_length(), 1)
        else:
            allowed = set(_HEX_DIGITS[:1 << _BASE_BITS[base_ch]] if base_ch != "h"
                          else _HEX_DIGITS)
            allowed |= {c.upper() for c in allowed}
            allowed |= set("xXzZ?_")
            digits = self._take_while(allowed)
            digits = digits.replace("_", "")
            if not digits:
                raise self._error("missing digits in based literal")
            bits_per = _BASE_BITS[base_ch]
            self._check_width(len(digits) * bits_per, line, column)
            val = 0
            xmask = 0
            for d in digits:
                val <<= bits_per
                xmask <<= bits_per
                if d in "xXzZ?":
                    xmask |= (1 << bits_per) - 1
                else:
                    val |= int(d, 16)
            natural = len(digits) * bits_per

        if width is None:
            width = max(natural, 32)
        text = self.source[start:self.pos]
        return Token(TokenKind.NUMBER, text, line, column,
                     value=(width, val, xmask, signed))

    @staticmethod
    def _check_width(width: int, line: int, column: int) -> None:
        if width > MAX_SIGNAL_WIDTH:
            raise VerilogSyntaxError(
                f"literal has unsupported width {width}", line, column)

    def _decimal(self, digits: str, line: int, column: int) -> int:
        # n decimal digits may need ceil(n * log2(10)) bits; the check
        # comes first, since int() refuses runs of about 4,300 digits.
        self._check_width(math.ceil(len(digits) * math.log2(10)),
                          line, column)
        return int(digits)

    def _take_while(self, allowed) -> str:
        start = self.pos
        while self.pos < len(self.source) and self.source[self.pos] in allowed:
            self._advance()
        return self.source[start:self.pos]

    def _skip_spaces_within_number(self) -> None:
        # _peek() returns "" at EOF, and "" is a substring of " \t", so the
        # emptiness check is required to terminate at end of input.
        while self._peek() and self._peek() in " \t":
            self._advance()


def reference_tokenize(source: str) -> list[Token]:
    """:func:`repro.hdl.lexer.tokenize`, through the reference lexer."""
    return ReferenceLexer(source).tokenize()
