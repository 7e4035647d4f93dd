"""Lexer for the supported Verilog subset.

A table-driven single-pass tokenizer built around one precompiled
*master regex*: alternation over trivia (whitespace, comments, compiler
directives), identifiers/keywords, based and unsized literals, system
identifiers, strings, and a longest-match punctuation branch generated
from :data:`~repro.hdl.tokens.PUNCTUATIONS`.  Line/column pairs are
derived lazily from a newline-offset table (monotonic sweep, no
per-character bookkeeping), identifier and keyword texts are interned,
and literal ``(width, value, xmask, signed)`` payloads are decoded in
the match handler.  The test suite keeps the original
character-at-a-time lexer (``tests/oracles/``) as the behavioural
reference: the lexer differential fuzz suite holds both to identical
token streams and identical :class:`VerilogSyntaxError` positions over
random token soups and the full golden corpus.

:func:`tokenize_cached` is a text-keyed token-stream cache that no
runtime path calls any more: the parse cache above it holds failing
texts as well as ASTs, and lexes a miss with :func:`tokenize`.  It
stays registered (as the ``tokenize`` cache layer, always empty)
because the campaign benchmark reports ``tokenize.*`` metrics.
"""

from __future__ import annotations

import math
import re
from sys import intern

from ..util import LruCache
from .errors import VerilogSyntaxError
from .eval import MAX_SIGNAL_WIDTH
from .tokens import KEYWORDS, PUNCTUATIONS, Token, TokenKind


_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}


# ======================================================================
# Master-regex tokenizer
# ======================================================================
# One precompiled alternation; the scan loop dispatches on
# ``match.lastgroup``.  Every match is an uncaptured *trivia prefix*
# (whitespace, comments, directives — folded into the token match so a
# typical "space then token" pair costs one scan, not two) followed by
# exactly one token alternative.  Alternative order is load-bearing:
#
# - complete token forms before their error-recovery counterparts
#   (BASED before BADBASE, STRING before BADSTRING, SYSTEM before
#   BADSYSTEM, the unterminated-comment probe before the ``/`` punct);
# - the punctuation branch preserves PUNCTUATIONS order, which is
#   longest-match (same first-match semantics as the reference lexer);
# - a final any-character branch turns into "unexpected character".
#
# The based-literal digit run is deliberately *generous* (full hex +
# 4-state class for every base): the handler then computes the longest
# valid prefix for the actual base and gives the rest back to the scan
# loop, reproducing the reference's take-while semantics (``4'b12``
# lexes as NUMBER(4'b1) NUMBER(2)).
# The prefix is *possessive* (``*+``): when no token follows (trailing
# trivia at EOF) the whole match must fail rather than backtrack and
# hand trivia characters to the any-character error branch.
_TRIVIA_PATTERN = r"(?:[ \t\r\n]+|//[^\n]*|`[^\n]*|/\*[\s\S]*?\*/)*+"

_MASTER_RE = re.compile(_TRIVIA_PATTERN + "(?:" + "|".join((
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_$]*)",
    r"(?P<BASED>(?:[0-9][0-9_]*[ \t]*)?'[sS]?[bodhBODH][ \t]*"
    r"[0-9a-fA-FxXzZ?_]*)",
    r"(?P<BADBASE>[0-9][0-9_]*[ \t]*'[sS]?|'[sS])",
    r"(?P<DEC>[0-9][0-9_]*)",
    r'(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")',
    r'(?P<BADSTRING>"(?:[^"\\\n]|\\[\s\S])*)',
    r"(?P<SYSTEM>\$[A-Za-z_][A-Za-z0-9_$]*)",
    r"(?P<BADSYSTEM>\$)",
    r"(?P<BADCOMMENT>/\*)",
    rf"(?P<PUNCT>{'|'.join(re.escape(p) for p in PUNCTUATIONS)})",
    r"(?P<BAD>[\s\S])",
)) + ")")

#: Decomposes a BASED match into width / sign / base; the digit run is
#: whatever follows the match.
_BASED_PARTS_RE = re.compile(
    r"(?:(?P<w>[0-9][0-9_]*)[ \t]*)?'(?P<s>[sS]?)(?P<b>[bodhBODH])[ \t]*")

#: Longest-valid-prefix matchers for each base's digit alphabet
#: (mirrors the reference's per-base take-while sets).
_DIGIT_PREFIX_RE = {
    "b": re.compile(r"[01xXzZ?_]*"),
    "o": re.compile(r"[0-7xXzZ?_]*"),
    "h": re.compile(r"[0-9a-fA-FxXzZ?_]*"),
    "d": re.compile(r"[0-9_]*"),
}

_BADBASE_WIDTH_RE = re.compile(r"[0-9][0-9_]*")

_INT_BASE = {1: 2, 3: 8, 4: 16}
_FOURSTATE = frozenset("xXzZ?")

_ESCAPE_RE = re.compile(r"\\([\s\S])")
_ESCAPE_MAP = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}

#: Canonical string tables: every emitted keyword/punctuation text is
#: the *same object* as the table entry, and identifier texts are
#: interned, so downstream dict lookups (elaboration scopes, parser
#: ``is_punct`` chains) compare pointers before bytes.
_KEYWORD_CANON = {intern(word): intern(word) for word in KEYWORDS}
_PUNCT_CANON = {p: intern(p) for p in PUNCTUATIONS}


def _escape_sub(match: re.Match) -> str:
    ch = match.group(1)
    return _ESCAPE_MAP.get(ch, ch)


#: A run of ``n`` decimal digits may need ``ceil(n * log2(10))`` bits,
#: more than MAX_SIGNAL_WIDTH past this many digits.
_MAX_DECIMAL_DIGITS = int(MAX_SIGNAL_WIDTH / math.log2(10))
_WIDTH_DIGITS = len(str(MAX_SIGNAL_WIDTH))


def _check_literal_width(width: int, line: int, column: int) -> None:
    """Reject a literal wider than :data:`MAX_SIGNAL_WIDTH` bits."""
    if width > MAX_SIGNAL_WIDTH:
        raise VerilogSyntaxError(f"literal has unsupported width {width}",
                                 line, column)


def _decimal_value(digits: str, line: int, column: int) -> int:
    """The value of an underscore-free decimal digit run, rejected by
    its length before ``int`` parses it: past about 4,300 digits
    ``int`` itself raises ``ValueError``."""
    if len(digits) > _MAX_DECIMAL_DIGITS:
        _check_literal_width(math.ceil(len(digits) * math.log2(10)),
                             line, column)
    return int(digits)


def _literal_width(text: str, line: int, column: int) -> int:
    """A sized literal's width, from its digit run ``text``."""
    digits = text.replace("_", "").lstrip("0")
    if len(digits) > _WIDTH_DIGITS:  # too many digits to parse, or to fit
        raise VerilogSyntaxError(
            f"literal has unsupported width {digits}", line, column)
    width = int(digits or "0")
    if width < 1:
        raise VerilogSyntaxError("literal width must be >= 1", line, column)
    _check_literal_width(width, line, column)
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


def _master_tokenize(source: str) -> list[Token]:
    """Single-pass scan of ``source`` with the master regex.

    The hot loop anchors one ``match`` per token at the running
    offset; a token may end *before* its match end when a based
    literal's generous digit run had an invalid-for-base suffix to give
    back (rare: only malformed-ish literals like ``4'b12`` take it).
    """
    tokens: list[Token] = []
    append = tokens.append
    scan = _MASTER_RE.match
    n = len(source)

    # Newline-offset table: token positions are derived lazily by a
    # monotonic sweep instead of per-character line/column bookkeeping.
    newlines: list[int] = []
    nl_append = newlines.append
    find = source.find
    i = find("\n")
    while i != -1:
        nl_append(i)
        i = find("\n", i + 1)
    nl_count = len(newlines)
    nl_i = 0            # newlines passed so far
    line_start = 0      # offset of the current line's first character

    number_kind = TokenKind.NUMBER
    punct_kind = TokenKind.PUNCT
    ident_kind = TokenKind.IDENT
    keyword_kind = TokenKind.KEYWORD
    keyword_canon = _KEYWORD_CANON
    punct_canon = _PUNCT_CANON
    # Per-run memo: repeated identifiers (every signal name appears many
    # times) resolve to their (kind, canonical text) pair with one dict
    # probe instead of a keyword lookup plus an intern call.
    ident_memo: dict[str, tuple[TokenKind, str]] = {}

    pos = 0
    while pos < n:
        m = scan(source, pos)
        if m is None:
            # Only trailing trivia remained (the possessive prefix
            # refuses to match without a token after it).
            break
        group = m.lastgroup
        idx = m.lastindex
        # The token alternative is the tail of the match, so its
        # span end is the match end.
        start, end = m.span(idx)
        # Advance the position sweep to this token's start.
        while nl_i < nl_count and newlines[nl_i] < start:
            line_start = newlines[nl_i] + 1
            nl_i += 1
        line = nl_i + 1
        column = start - line_start + 1

        if group == "IDENT":
            text = m.group(idx)
            cached = ident_memo.get(text)
            if cached is None:
                canon = keyword_canon.get(text)
                if canon is not None:
                    cached = (keyword_kind, canon)
                else:
                    cached = (ident_kind, intern(text))
                ident_memo[text] = cached
            append(Token(cached[0], cached[1], line, column))
        elif group == "PUNCT":
            append(Token(punct_kind, punct_canon[m.group(idx)], line,
                         column))
        elif group == "DEC":
            text = m.group(idx)
            value = _decimal_value(text.replace("_", ""), line,
                                   column) & 0xFFFFFFFF
            # Unsized decimal literals are 32-bit in Verilog.
            append(Token(number_kind, text, line, column,
                         value=(None, value, 0, True)))
        elif group == "BASED":
            text = m.group(idx)
            parts = _BASED_PARTS_RE.match(text)
            w = parts.group("w")
            width = None if w is None else _literal_width(w, line, column)
            base = parts.group("b").lower()
            digits_start = start + parts.end()
            raw = text[parts.end():]
            valid = _DIGIT_PREFIX_RE[base].match(raw).group()
            clean = valid.replace("_", "")
            if not clean:
                err_line, err_col = _position_at(
                    newlines, nl_i, line_start, digits_start + len(valid))
                raise VerilogSyntaxError(
                    "missing digits in decimal literal" if base == "d"
                    else "missing digits in based literal",
                    err_line, err_col)
            if base == "d":
                val = _decimal_value(clean, line, column)
                xmask = 0
                natural = max(val.bit_length(), 1)
            else:
                bits_per = _BASE_BITS[base]
                natural = len(clean) * bits_per
                _check_literal_width(natural, line, column)
                val, xmask = _decode_based_digits(clean, bits_per)
            if width is None:
                width = max(natural, 32)
            token_end = digits_start + len(valid)
            append(Token(number_kind, source[start:token_end], line,
                         column, value=(width, val, xmask,
                                        parts.group("s") != "")))
            end = token_end
        elif group == "STRING":
            body = source[start + 1:end - 1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_escape_sub, body)
            append(Token(TokenKind.STRING, body, line, column, value=body))
        elif group == "SYSTEM":
            append(Token(TokenKind.SYSTEM_IDENT, intern(m.group(idx)),
                         line, column))
        elif group == "BADBASE":
            text = m.group(idx)
            wm = _BADBASE_WIDTH_RE.match(text)
            if wm is not None:
                _literal_width(wm.group(), line, column)
            base_ch = source[end:end + 1].lower()
            err_line, err_col = _position_at(
                newlines, nl_i, line_start, end)
            raise VerilogSyntaxError(
                f"invalid number base {base_ch!r}", err_line, err_col)
        elif group == "BADSTRING":
            message = ("newline in string" if source[end:end + 1] == "\n"
                       else "unterminated string")
            raise VerilogSyntaxError(message, line, column)
        elif group == "BADSYSTEM":
            err_line, err_col = _position_at(
                newlines, nl_i, line_start, end)
            raise VerilogSyntaxError(
                "expected system task name after '$'", err_line, err_col)
        elif group == "BADCOMMENT":
            raise VerilogSyntaxError("unterminated block comment", line, 0)
        else:  # BAD
            raise VerilogSyntaxError(
                f"unexpected character {m.group(idx)!r}", line, column)
        pos = end

    while nl_i < nl_count and newlines[nl_i] < n:
        line_start = newlines[nl_i] + 1
        nl_i += 1
    append(Token(TokenKind.EOF, "", nl_i + 1, n - line_start + 1))
    return tokens


def _position_at(newlines: list[int], nl_i: int, line_start: int,
                 offset: int) -> tuple[int, int]:
    """(line, column) of ``offset``, resuming the sweep at ``nl_i``.

    Only used on error paths, where the offset of interest (end of a
    digit run, character after a match) may lie ahead of the token
    start the main sweep stopped at.
    """
    nl_count = len(newlines)
    while nl_i < nl_count and newlines[nl_i] < offset:
        line_start = newlines[nl_i] + 1
        nl_i += 1
    return nl_i + 1, offset - line_start + 1


# ======================================================================
# Public entry points
# ======================================================================
def tokenize(source: str) -> list[Token]:
    """Tokenize Verilog source text, raising :class:`VerilogSyntaxError`."""
    return _master_tokenize(source)


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
