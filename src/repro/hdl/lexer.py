"""Lexer for the supported Verilog subset.

One C-level scan per text: :func:`tokenize` runs ``findall`` of one
precompiled *master pattern* whose only capture group is the token
text.  Each match is one token alternative followed by the uncaptured,
possessive trivia after it (whitespace, comments, compiler
directives); the scan starts past the text's leading trivia, and its
last match, empty at the end of the text, becomes the EOF token.

The strings map to tokens through a per-call copy of a module table
holding one shared :class:`~repro.hdl.tokens.Token` per keyword, per
punctuation mark and for EOF.  Only strings that miss it are classified
in Python (identifiers, numbers, strings, system names and errors),
each once per text, so every repeat of an identifier or literal in a
text is the same ``Token`` object.  Tokens carry no position:
:func:`position` works out where a token starts from the source, which
the lexer and parser ask only to raise a :class:`VerilogSyntaxError`.
Errors are raised in token order, at the same positions and with the
same messages as the character-at-a-time reference lexer in
``tests/oracles/``; the lexer differential fuzz suite holds the two to
identical streams and positions.

>>> source = "module m;\\n  wire w;"
>>> [t.text for t in tokenize(source)]
['module', 'm', ';', 'wire', 'w', ';', '']
>>> position(source, 4)
(2, 8)
>>> tokenize("x = 4'q1;")
Traceback (most recent call last):
    ...
repro.hdl.errors.VerilogSyntaxError: line 1:7: invalid number base 'q'

:func:`tokenize_cached` is a text-keyed token-stream cache that no
runtime path calls any more: the parse cache above it holds failing
texts as well as ASTs, and lexes a miss with :func:`tokenize`.  It
stays registered (as the ``tokenize`` cache layer, always empty)
because the campaign benchmark reports ``tokenize.*`` metrics.
"""

from __future__ import annotations

import math
import re
import string
from itertools import filterfalse, islice
from sys import intern

from ..util import LruCache
from .errors import VerilogSyntaxError
from .eval import MAX_SIGNAL_WIDTH
from .tokens import KEYWORDS, PUNCTUATIONS, Token, TokenKind


_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}

# The token alternatives, in match order.  Order is load-bearing:
#
# - complete token forms before their error counterparts (BASED before
#   BADBASE, STRING before NLSTRING before BADSTRING, SYSTEM before
#   BADSYSTEM, the unterminated-comment probe before the ``/`` mark);
# - the punctuation branch keeps PUNCTUATIONS order, which is
#   longest-match (the reference lexer's first-match semantics);
# - a final any-character branch becomes "unexpected character".
#
# Branches that start with disjoint characters may go in any order;
# identifiers and punctuation, the most frequent, go first.  A based
# literal's digit run takes only its base's digits, so ``4'b12`` lexes
# as ``4'b1`` then ``2``, as the reference's take-while does.  BADBASE
# captures the character after the quote (and sign), which names the
# invalid base; BADCOMMENT captures the rest of the text, so a later
# ``/*`` cannot rescan to the end again.
_ALTERNATIVES = (
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("BADCOMMENT", r"/\*[\s\S]*"),
    ("PUNCT", "|".join(re.escape(p) for p in PUNCTUATIONS)),
    ("BASED", r"(?:[0-9][0-9_]*[ \t]*)?'[sS]?(?:[bB][ \t]*[01xXzZ?_]*"
              r"|[oO][ \t]*[0-7xXzZ?_]*|[dD][ \t]*[0-9_]*"
              r"|[hH][ \t]*[0-9a-fA-FxXzZ?_]*)"),
    ("BADBASE", r"(?:[0-9][0-9_]*[ \t]*'[sS]?|'[sS])[\s\S]?"),
    ("DEC", r"[0-9][0-9_]*"),
    ("STRING", r'"(?:[^"\\\n]|\\[\s\S])*"'),
    ("NLSTRING", r'"(?:[^"\\\n]|\\[\s\S])*\n'),
    ("BADSTRING", r'"(?:[^"\\\n]|\\[\s\S])*'),
    ("SYSTEM", r"\$[A-Za-z_][A-Za-z0-9_$]*"),
    ("BADSYSTEM", r"\$"),
    ("BAD", r"[\s\S]"),
)

# Each token match takes the trivia after it (whitespace, comments,
# directives), so a scan that starts past the leading trivia never
# resumes inside trivia.  The trivia is possessive (``*+``): it never
# hands a character back to the any-character branch.  The ``\Z``
# branch is the one empty match, at the end of the text: EOF.
_TRIVIA = r"(?:[ \t\r\n]+|//[^\n]*|`[^\n]*|/\*[\s\S]*?\*/)*+"
_TRIVIA_RE = re.compile(_TRIVIA)
_SCAN_RE = re.compile(
    "(" + "|".join(pattern for _, pattern in _ALTERNATIVES) + ")"
    + _TRIVIA + r"|\Z")

#: Names the alternative a captured string came from (a string that the
#: scan captured with one alternative fully matches no earlier one).
_KIND_RE = re.compile("|".join(f"(?P<{name}>{pattern})"
                               for name, pattern in _ALTERNATIVES))

#: Splits a based literal (or a bad base) into width, sign and base;
#: the digits are the rest.
_LITERAL_PARTS_RE = re.compile(
    r"(?:([0-9][0-9_]*)[ \t]*)?'([sS]?)([\s\S]?)[ \t]*")

#: First characters that decide a captured string's kind: identifiers,
#: and sized or decimal numbers (based when the string holds a quote).
_IDENT_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)

_INT_BASE = {1: 2, 3: 8, 4: 16}
_FOURSTATE = frozenset("xXzZ?")

_ESCAPE_RE = re.compile(r"\\([\s\S])")
_ESCAPE_MAP = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}

#: One shared token per keyword, punctuation mark and EOF (the empty
#: capture at the end of the text).  Their texts are interned, as are
#: identifier texts, so downstream dict lookups compare pointers.
_SHARED = {
    **{word: Token(TokenKind.KEYWORD, intern(word)) for word in KEYWORDS},
    **{p: Token(TokenKind.PUNCT, intern(p)) for p in PUNCTUATIONS},
    "": Token(TokenKind.EOF, ""),
}


class _Bad(Exception):
    """A token text that does not lex: ``message``, ``offset``
    characters into the token (``None``: column 0 of its line)."""

    def __init__(self, message: str, offset: int | None = 0):
        super().__init__(message)
        self.message = message
        self.offset = offset


def _escape_sub(match: re.Match) -> str:
    ch = match.group(1)
    return _ESCAPE_MAP.get(ch, ch)


#: A run of ``n`` decimal digits may need ``ceil(n * log2(10))`` bits,
#: more than MAX_SIGNAL_WIDTH past this many digits.
_MAX_DECIMAL_DIGITS = int(MAX_SIGNAL_WIDTH / math.log2(10))
_WIDTH_DIGITS = len(str(MAX_SIGNAL_WIDTH))


def _check_literal_width(width: int) -> None:
    """Reject a literal wider than :data:`MAX_SIGNAL_WIDTH` bits."""
    if width > MAX_SIGNAL_WIDTH:
        raise _Bad(f"literal has unsupported width {width}")


def _decimal_value(digits: str) -> int:
    """The value of an underscore-free decimal digit run, rejected by
    its length before ``int`` parses it: past about 4,300 digits
    ``int`` itself raises ``ValueError``."""
    if len(digits) > _MAX_DECIMAL_DIGITS:
        _check_literal_width(math.ceil(len(digits) * math.log2(10)))
    return int(digits)


def _literal_width(text: str) -> int:
    """A sized literal's width, from its digit run ``text``."""
    digits = text.replace("_", "").lstrip("0")
    if len(digits) > _WIDTH_DIGITS:  # too many digits to parse, or to fit
        raise _Bad(f"literal has unsupported width {digits}")
    width = int(digits or "0")
    if width < 1:
        raise _Bad("literal width must be >= 1")
    _check_literal_width(width)
    return width


def _decode_based_digits(digits: str, bits_per: int) -> tuple[int, int]:
    """``(value, xmask)`` for an underscore-free based digit run."""
    if not _FOURSTATE.intersection(digits):
        return int(digits, _INT_BASE[bits_per]), 0
    val = 0
    xmask = 0
    step_mask = (1 << bits_per) - 1
    for d in digits:
        val <<= bits_per
        xmask <<= bits_per
        if d in _FOURSTATE:
            xmask |= step_mask
        else:
            val |= int(d, 16)
    return val, xmask


def _based(text: str) -> Token:
    """The token for a based literal, or the error of a bad base."""
    parts = _LITERAL_PARTS_RE.match(text)
    w, sign, base = parts.groups()
    width = None if w is None else _literal_width(w)
    base = base.lower()
    if base not in _BASE_BITS:
        raise _Bad(f"invalid number base {base!r}", parts.start(3))
    digits = text[parts.end():].replace("_", "")
    if not digits:
        raise _Bad("missing digits in decimal literal" if base == "d"
                   else "missing digits in based literal", len(text))
    if base == "d":
        val = _decimal_value(digits)
        xmask = 0
        natural = max(val.bit_length(), 1)
    else:
        bits_per = _BASE_BITS[base]
        natural = len(digits) * bits_per
        _check_literal_width(natural)
        val, xmask = _decode_based_digits(digits, bits_per)
    if width is None:
        width = max(natural, 32)
    return Token(TokenKind.NUMBER, text, (width, val, xmask, sign != ""))


def _token(text: str) -> Token:
    """The token for a captured string the shared table lacks; raises
    :class:`_Bad` for one that does not lex."""
    first = text[0]
    if first in _IDENT_START:
        return Token(TokenKind.IDENT, intern(text))
    if first in _DIGITS:
        if "'" in text:
            return _based(text)
        # Unsized decimal literals are 32-bit in Verilog.
        value = _decimal_value(text.replace("_", "")) & 0xFFFFFFFF
        return Token(TokenKind.NUMBER, text, (None, value, 0, True))
    kind = _KIND_RE.fullmatch(text).lastgroup
    if kind in ("BASED", "BADBASE"):  # unsized: ``'h10``, ``'sq``
        return _based(text)
    if kind == "STRING":
        body = text[1:-1]
        if "\\" in body:
            body = _ESCAPE_RE.sub(_escape_sub, body)
        return Token(TokenKind.STRING, body, body)
    if kind == "SYSTEM":
        return Token(TokenKind.SYSTEM_IDENT, intern(text))
    if kind == "NLSTRING":
        raise _Bad("newline in string")
    if kind == "BADSTRING":
        raise _Bad("unterminated string")
    if kind == "BADSYSTEM":
        raise _Bad("expected system task name after '$'", 1)
    if kind == "BADCOMMENT":
        raise _Bad("unterminated block comment", None)
    raise _Bad(f"unexpected character {text!r}")


# ======================================================================
# Public entry points
# ======================================================================
def position(source: str, index: int) -> tuple[int, int]:
    """1-based ``(line, column)`` where the ``index``-th token of
    ``source`` starts (EOF: the end of the text).  Rescans up to that
    token."""
    scan = _SCAN_RE.finditer(source, _TRIVIA_RE.match(source).end())
    start = next(islice(scan, index, None)).start()
    line_start = source.rfind("\n", 0, start) + 1
    return source.count("\n", 0, start) + 1, start - line_start + 1


def tokenize(source: str) -> list[Token]:
    """Tokenize Verilog source text, raising :class:`VerilogSyntaxError`
    at the first token that does not lex."""
    texts = _SCAN_RE.findall(source, _TRIVIA_RE.match(source).end())
    memo = _SHARED.copy()
    # Misses in order of first appearance: the first that does not lex
    # is the first bad token, and nothing after it is classified.
    for text in filterfalse(memo.__contains__, dict.fromkeys(texts)):
        try:
            memo[text] = _token(text)
        except _Bad as error:
            line, column = position(source, texts.index(text))
            raise VerilogSyntaxError(
                error.message, line,
                0 if error.offset is None else column + error.offset
            ) from None
    return list(map(memo.get, texts))


_tokenize_cache = LruCache(capacity=512)


def tokenize_cached(source: str) -> tuple[Token, ...]:
    """Text-keyed token-stream cache (unused by the runtime; see the
    module docstring).

    Token objects are immutable by convention, so sharing one stream is
    safe.  Lexing *errors* are not cached: a failing text re-raises on
    every call.
    """
    return _tokenize_cache.get_or_create(
        source, lambda: tuple(tokenize(source)))


def clear_tokenize_cache() -> None:
    _tokenize_cache.clear()


def tokenize_cache_stats() -> dict:
    return _tokenize_cache.stats()
