"""Unit tests for the Verilog lexer.

Every test runs against both the runtime tokenizer and the
character-at-a-time reference oracle (``tests/oracles/``) via the
``tokenize`` fixture; cross-implementation equivalence at scale lives
in ``test_lexer_diff_fuzz.py``.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracles import LEXERS, token_positions
from repro.hdl.errors import VerilogSyntaxError
from repro.hdl.tokens import TokenKind


@pytest.fixture(params=LEXERS)
def tokenize(request):
    return LEXERS[request.param]


@pytest.fixture
def kinds(tokenize):
    def run(source):
        return [t.kind for t in tokenize(source)[:-1]]
    return run


@pytest.fixture
def texts(tokenize):
    def run(source):
        return [t.text for t in tokenize(source)[:-1]]
    return run


class TestBasics:
    def test_empty_source_yields_eof(self, tokenize):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifier(self, tokenize):
        tok = tokenize("my_signal_1")[0]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "my_signal_1"

    def test_identifier_with_dollar(self, tokenize):
        assert tokenize("abc$q")[0].text == "abc$q"

    def test_keywords(self, tokenize):
        assert tokenize("module")[0].kind is TokenKind.KEYWORD
        assert tokenize("endmodule")[0].kind is TokenKind.KEYWORD
        assert tokenize("posedge")[0].kind is TokenKind.KEYWORD

    def test_system_ident(self, tokenize):
        tok = tokenize("$fdisplay")[0]
        assert tok.kind is TokenKind.SYSTEM_IDENT
        assert tok.text == "$fdisplay"

    def test_system_ident_without_name_rejected(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize("$ 1")

    def test_line_tracking(self, tokenize):
        source = "a\nb\n  c"
        toks = tokenize(source)
        assert token_positions(source, toks) == [
            (1, 1), (2, 1), (3, 3), (3, 4)]


class TestComments:
    def test_line_comment(self, texts):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self, texts):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize("a /* never ends")

    def test_directive_skipped(self, texts):
        assert texts("`timescale 1ns/1ps\na") == ["a"]


class TestNumbers:
    def value(self, tokenize, source):
        return tokenize(source)[0].value

    def test_unsized_decimal(self, tokenize):
        width, val, xmask, signed = self.value(tokenize, "42")
        assert (width, val, xmask, signed) == (None, 42, 0, True)

    def test_sized_binary(self, tokenize):
        assert self.value(tokenize, "4'b1010") == (4, 0b1010, 0, False)

    def test_sized_hex(self, tokenize):
        assert self.value(tokenize, "8'hFF") == (8, 0xFF, 0, False)

    def test_sized_decimal(self, tokenize):
        assert self.value(tokenize, "10'd512") == (10, 512, 0, False)

    def test_octal(self, tokenize):
        assert self.value(tokenize, "6'o17") == (6, 0o17, 0, False)

    def test_signed_literal(self, tokenize):
        assert self.value(tokenize, "4'sb1000") == (4, 0b1000, 0, True)

    def test_x_digits(self, tokenize):
        width, val, xmask, signed = self.value(tokenize, "4'b1x0z")
        assert width == 4
        assert val == 0b1000
        assert xmask == 0b0101

    def test_hex_x_digit(self, tokenize):
        width, val, xmask, signed = self.value(tokenize, "8'hAx")
        assert val == 0xA0
        assert xmask == 0x0F

    def test_question_mark_digit(self, tokenize):
        width, val, xmask, signed = self.value(tokenize, "2'b1?")
        assert xmask == 0b01

    def test_underscores(self, tokenize):
        assert self.value(tokenize, "8'b1010_0101") == (8, 0xA5, 0, False)

    def test_unbased_width_defaults_32(self, tokenize):
        width, val, _, _ = self.value(tokenize, "'h10")
        assert width == 32
        assert val == 16

    def test_bad_base_rejected(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize("4'q1010")

    def test_empty_digits_rejected(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize("4'b;")

    def test_zero_width_rejected(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize("0'b0")

    # Each form's width, or the width its digit run implies, is over
    # MAX_SIGNAL_WIDTH; 5,000 decimal digits are past what int() parses.
    @pytest.mark.parametrize("literal, width", [
        ("9" * 5000, 16610),
        ("1" * 1234, 4100),
        ("'d" + "9" * 5000, 16610),
        ("8'd" + "9" * 5000, 16610),
        ("5000'd1", 5000),
        ("4097'd1", 4097),
        ("'h" + "f" * 1025, 4100),
        ("9" * 5000 + "'d1", "9" * 5000),
        ("9" * 5000 + "'q1", "9" * 5000),
    ], ids=["decimal", "decimal_1234", "unsized_d", "sized_d", "width",
            "width_4097", "hex_digits", "long_width", "long_width_bad_base"])
    def test_oversized_literal_rejected(self, tokenize, literal, width):
        with pytest.raises(VerilogSyntaxError) as info:
            tokenize(f"x = {literal};")
        assert (info.value.line, info.value.column) == (1, 5)
        assert info.value.bare_message \
            == f"literal has unsupported width {width}"

    def test_widest_literal_lexes(self, tokenize):
        assert self.value(tokenize, "4096'd1") == (4096, 1, 0, False)
        assert self.value(tokenize, "9" * 1233)[1] \
            == int("9" * 1233) & 0xFFFFFFFF


class TestStrings:
    def test_simple_string(self, tokenize):
        tok = tokenize('"hello"')[0]
        assert tok.kind is TokenKind.STRING
        assert tok.value == "hello"

    def test_escapes(self, tokenize):
        assert tokenize(r'"a\nb\tc\"d"')[0].value == 'a\nb\tc"d'

    def test_unterminated(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize('"never ends')

    def test_newline_in_string_rejected(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize('"line\nbreak"')


class TestPunctuation:
    def test_multi_char_greedy(self, texts):
        assert texts("a <<< b") == ["a", "<<<", "b"]
        assert texts("a <= b") == ["a", "<=", "b"]
        assert texts("a === b") == ["a", "===", "b"]

    def test_nonblocking_vs_relational_same_token(self, texts):
        # The parser disambiguates; the lexer emits '<=' for both.
        assert texts("q <= d")[1] == "<="

    def test_unexpected_character(self, tokenize):
        with pytest.raises(VerilogSyntaxError):
            tokenize("a \\ b")

    def test_full_statement(self, texts):
        src = "assign out = (a & b) | ~c;"
        assert texts(src) == ["assign", "out", "=", "(", "a", "&", "b", ")",
                              "|", "~", "c", ";"]


# A bad character, then about 1 MB of valid tokens with 100,000
# distinct identifiers: the scan covers the whole text before the first
# error is raised, so its cost must stay linear and small.
_HOSTILE_PROBE = textwrap.dedent("""
    import resource, time
    from repro.hdl.errors import VerilogSyntaxError
    from repro.hdl.lexer import tokenize
    source = "\\\\" + "".join(f" x{i} = {i};" for i in range(100_000))
    assert len(source) > 1_000_000
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    try:
        tokenize(source)
    except VerilogSyntaxError as exc:
        error = (exc.line, exc.column, exc.bare_message)
    seconds = time.perf_counter() - start
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    print(repr((error, seconds, grown / 1024)))
""")


def test_bad_character_before_a_megabyte_fails_typed_and_bounded():
    """Measured at about 0.4 s and 21 MB of peak-RSS growth."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run([sys.executable, "-c", _HOSTILE_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    error, seconds, grown_mb = ast.literal_eval(out)
    assert error == (1, 1, "unexpected character '\\\\'")
    assert seconds < 2.0
    assert grown_mb < 48
