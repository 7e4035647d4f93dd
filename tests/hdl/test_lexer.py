"""Unit tests for the Verilog lexer.

Every test runs against both the master-regex tokenizer and the
character-at-a-time reference oracle (``tests/oracles/``) via the
``tokenize`` fixture; cross-implementation equivalence at scale lives
in ``test_lexer_diff_fuzz.py``.
"""

import pytest

from oracles import LEXERS
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
        toks = tokenize("a\nb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3
        assert toks[2].column == 3


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
