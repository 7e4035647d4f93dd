"""Differential fuzzing for the lexer pair: master regex vs reference.

The master-regex tokenizer (the runtime lexer) and the
character-at-a-time reference lexer (the oracle in ``tests/oracles/``)
must be observationally identical:
same token streams (kind, text, line, column, decoded number payloads)
and, for malformed input, the same ``VerilogSyntaxError`` line, column
and message.  Three corpora drive the comparison:

1. **token soups** — seeded random concatenations of valid token
   fragments, trivia and deliberately-broken fragments (bad bases,
   zero widths, unterminated strings/comments, stray characters),
   joined by unpredictable separators so adjacent fragments fuse into
   new forms;
2. **the golden corpus** — every benchmark problem's golden RTL and its
   rendered hybrid-testbench driver (the exact texts the evaluation
   pipelines lex thousands of times);
3. **pinned regressions** — exact line/column/message expectations for
   the number-literal error paths both lexers must agree on.

Budget knobs follow the simulator fuzz suite: ``REPRO_FUZZ_PROGRAMS``
sizes the soup corpus (default 200; the nightly long-fuzz job raises
it), ``REPRO_FUZZ_SEED`` fixes the base seed so failures reproduce
(both read by ``tests/fuzz_budget.py``).
"""

import random

import pytest

from fuzz_budget import fuzz_budget
from oracles import LEXERS
from repro.hdl.errors import VerilogSyntaxError
from repro.hdl.lexer import (clear_tokenize_cache, tokenize,
                             tokenize_cache_stats, tokenize_cached)
from repro.hdl.tokens import KEYWORDS, PUNCTUATIONS, TokenKind
from repro.problems import load_dataset

N_SOUPS, BASE_SEED = fuzz_budget()


def lex_outcome(source: str, lexer: str):
    """Full observable behaviour of one lexer run, comparable with ==."""
    try:
        stream = LEXERS[lexer](source)
    except VerilogSyntaxError as exc:
        return ("error", exc.bare_message, exc.line, exc.column)
    return ("ok", tuple((t.kind, t.text, t.line, t.column, t.value)
                        for t in stream))


def assert_lexers_agree(source: str):
    master = lex_outcome(source, "master")
    reference = lex_outcome(source, "reference")
    assert master == reference, (
        f"lexer divergence on {source!r}:\n"
        f"  master:    {master[:2]}\n  reference: {reference[:2]}")
    return master


# ----------------------------------------------------------------------
# Token-soup generator
# ----------------------------------------------------------------------
_IDENT_ALPHA = "abcdefgXYZ_"
_IDENT_CONT = _IDENT_ALPHA + "0123456789$"

_BROKEN_FRAGMENTS = (
    "'", "'s", "'q", "'sq", "'s q", "4'q1", "0'b0", "00'h2", "4'",
    "4 '", "4'd_", "4'b_", "4'b", "'d", "'o_", "12'hGG", "'dz", "4'b2",
    "4'd9a", "$", "$ ", '"no end', '"new\nline"', "/* no end", "\\",
    "@ #", "4'b1x2", "8'h xyq", "5 'sd", "'SB", "'Sq", "0'", "0 'b1",
)

_TRIVIA_FRAGMENTS = (
    " ", "  ", "\t", "\n", "\r\n", "\n\n", " \t ", "// line comment\n",
    "/* block */", "/* multi\nline */", "`timescale 1ns/1ps\n",
    "`define X 1\n", "//eol-comment-at-eof", "",
)


class SoupGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def ident(self) -> str:
        rng = self.rng
        return (rng.choice(_IDENT_ALPHA)
                + "".join(rng.choice(_IDENT_CONT)
                          for _ in range(rng.randrange(0, 8))))

    def number(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            text = str(rng.randrange(0, 1 << 16))
            if rng.random() < 0.2:
                text = text[0] + "_" + text[1:] if len(text) > 1 else text
            return text
        width = rng.choice(("", str(rng.randrange(1, 65))))
        sep = rng.choice(("", " ", "\t")) if width else ""
        sign = rng.choice(("", "s", "S"))
        base = rng.choice("bodhBODH")
        gap = rng.choice(("", " ", "  "))
        alphabet = {"b": "01", "o": "01234567", "d": "0123456789",
                    "h": "0123456789abcdefABCDEF"}[base.lower()]
        if base.lower() != "d" and self.rng.random() < 0.4:
            alphabet += "xXzZ?"
        digits = "".join(rng.choice(alphabet + "_")
                         for _ in range(rng.randrange(1, 10)))
        return f"{width}{sep}'{sign}{base}{gap}{digits}"

    def string(self) -> str:
        rng = self.rng
        pieces = []
        for _ in range(rng.randrange(0, 8)):
            roll = rng.random()
            if roll < 0.2:
                pieces.append(rng.choice(
                    ('\\n', '\\t', '\\\\', '\\"', '\\q', '\\ ')))
            else:
                pieces.append(rng.choice(
                    "abc XYZ 0123 %d %b %h !?.,;:(){}"))
        return '"' + "".join(pieces) + '"'

    def fragment(self, clean: bool) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.22:
            return self.ident()
        if roll < 0.30:
            return rng.choice(sorted(KEYWORDS))
        if roll < 0.52:
            return self.number()
        if roll < 0.60:
            return self.string()
        if roll < 0.66:
            return "$" + self.ident()
        if roll < 0.88 or clean:
            return rng.choice(PUNCTUATIONS)
        return rng.choice(_BROKEN_FRAGMENTS)

    def soup(self, clean: bool) -> str:
        """``clean`` soups use only valid fragments with whitespace
        between them (mostly-lexable); dirty soups mix in broken
        fragments and omit separators so fragments fuse."""
        rng = self.rng
        parts = []
        for _ in range(rng.randrange(3, 40)):
            parts.append(self.fragment(clean))
            if clean or rng.random() < 0.75:
                parts.append(rng.choice(_TRIVIA_FRAGMENTS) or " ")
        return "".join(parts)


def soup_for(index: int) -> str:
    rng = random.Random((BASE_SEED << 21) + index)
    return SoupGen(rng).soup(clean=index % 2 == 0)


@pytest.mark.parametrize("index", range(N_SOUPS))
def test_soup_differential(index):
    assert_lexers_agree(soup_for(index))


def test_soup_generator_is_deterministic():
    assert soup_for(3) == soup_for(3)
    assert soup_for(3) != soup_for(4)


def test_soup_corpus_not_vacuous():
    """The soup corpus must exercise both clean and error paths."""
    outcomes = [lex_outcome(soup_for(i), "master")[0]
                for i in range(min(N_SOUPS, 200))]
    assert outcomes.count("ok") >= 0.2 * len(outcomes)
    assert outcomes.count("error") >= 0.2 * len(outcomes)


# ----------------------------------------------------------------------
# Golden corpus: every problem's RTL + rendered driver
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "task_id", [task.task_id for task in load_dataset()])
def test_golden_corpus_differential(task_id):
    from repro.codegen import render_driver
    from repro.problems import get_task

    task = get_task(task_id)
    rtl = task.golden_rtl()
    driver = render_driver(task, task.canonical_scenarios())
    for source in (rtl, driver, rtl + "\n" + driver):
        outcome = assert_lexers_agree(source)
        assert outcome[0] == "ok"
        # The corpus is non-vacuous: real tokens, not an empty stream.
        assert len(outcome[1]) > 10


# ----------------------------------------------------------------------
# Pinned error-position regressions
# ----------------------------------------------------------------------
# One entry per number-literal error path: (source, message, line, col).
# The column convention: point at the offending character (the invalid
# base char, the position where digits were expected) except for the
# width check, which reports the start of the malformed literal.
_PINNED_ERRORS = (
    ("x = 4'q1;", "invalid number base 'q'", 1, 7),
    ("a 'sq1", "invalid number base 'q'", 1, 5),
    ("x = 4'Q1;", "invalid number base 'q'", 1, 7),
    ("a 4 ' b1", "invalid number base ' '", 1, 6),
    ("a 's q", "invalid number base ' '", 1, 5),
    ("a 's", "invalid number base ''", 1, 5),
    ("a 4'", "invalid number base ''", 1, 5),
    ("x = 0'b0;", "literal width must be >= 1", 1, 5),
    ("\n  00'h2", "literal width must be >= 1", 2, 3),
    ("x = 4'b;", "missing digits in based literal", 1, 8),
    ("x = 4'b_;", "missing digits in based literal", 1, 9),
    ("x = 12'hGG;", "missing digits in based literal", 1, 9),
    ("x = 4'd_;", "missing digits in decimal literal", 1, 9),
    ("x = 'dz;", "missing digits in decimal literal", 1, 7),
    ("a 'sb", "missing digits in based literal", 1, 6),
    ("\nw = \n 8'o 9;", "missing digits in based literal", 3, 6),
    ("$ 1", "expected system task name after '$'", 1, 2),
    ("ab /* nope", "unterminated block comment", 1, 0),
    ('x = "abc', "unterminated string", 1, 5),
    ('x = "ab\ncd"', "newline in string", 1, 5),
    ("a \\ b", "unexpected character '\\\\'", 1, 3),
)


@pytest.mark.parametrize("lexer", LEXERS)
@pytest.mark.parametrize("source,message,line,column", _PINNED_ERRORS)
def test_pinned_error_positions(lexer, source, message, line, column):
    with pytest.raises(VerilogSyntaxError) as info:
        LEXERS[lexer](source)
    exc = info.value
    assert (exc.bare_message, exc.line, exc.column) == (message, line, column)


@pytest.mark.parametrize("lexer", LEXERS)
def test_signed_unsized_literal_accepted(lexer):
    """``'sd12`` — no width, signed — is a legal unsized literal."""
    tok = LEXERS[lexer]("'sd12")[0]
    assert tok.kind is TokenKind.NUMBER
    assert tok.value == (32, 12, 0, True)


@pytest.mark.parametrize("lexer", LEXERS)
def test_unsized_decimal_text_excludes_probe_spaces(lexer):
    """``#5 clk``: the spaces probed for a ``'`` are not literal text."""
    toks = LEXERS[lexer]("#5 clk")
    assert [t.text for t in toks[:-1]] == ["#", "5", "clk"]
    toks = LEXERS[lexer]("4  x")
    assert toks[0].text == "4"
    assert (toks[1].text, toks[1].column) == ("x", 4)


@pytest.mark.parametrize("lexer", LEXERS)
def test_based_literal_giveback(lexer):
    """Digits invalid for the base are returned to the stream."""
    toks = LEXERS[lexer]("4'b12")
    assert [(t.text, t.value) for t in toks[:-1]] == [
        ("4'b1", (4, 1, 0, False)), ("2", (None, 2, 0, True))]
    toks = LEXERS[lexer]("8'hxy_q")
    assert toks[0].value == (8, 0, 15, False)
    assert toks[1].text == "y_q"


# ----------------------------------------------------------------------
# Entry point + cache behaviour
# ----------------------------------------------------------------------
def test_tokenize_rejects_unknown_explicit_lexer():
    """There is one runtime lexer: naming another fails loudly instead
    of silently lexing with the master."""
    with pytest.raises(TypeError):
        tokenize("a", "refrence")


def test_tokenize_cache_shares_streams():
    clear_tokenize_cache()
    try:
        first = tokenize_cached("assign y = a + b;")
        again = tokenize_cached("assign y = a + b;")
        assert first is again  # same stream object on a hit
        stats = tokenize_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1
        assert [(t.kind, t.text) for t in first] == \
            [(t.kind, t.text) for t in tokenize("assign y = a + b;")]
    finally:
        clear_tokenize_cache()


def test_tokenize_cache_does_not_cache_errors():
    clear_tokenize_cache()
    for _ in range(2):
        with pytest.raises(VerilogSyntaxError):
            tokenize_cached("x = 4'q1;")
    stats = tokenize_cache_stats()
    assert stats["hits"] == 0
