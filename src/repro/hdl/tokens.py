"""Token definitions for the Verilog subset lexer."""

from __future__ import annotations

from enum import Enum, auto


class TokenKind(Enum):
    IDENT = auto()
    KEYWORD = auto()
    NUMBER = auto()        # value carries (width | None, val, xmask, signed)
    STRING = auto()
    SYSTEM_IDENT = auto()  # $display, $finish, ...
    PUNCT = auto()
    EOF = auto()


#: Keywords of the supported subset.  Everything else is an identifier.
KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "integer", "real", "parameter", "localparam", "assign", "always",
    "initial", "begin", "end", "if", "else", "case", "casez", "casex",
    "endcase", "default", "for", "while", "repeat", "forever", "posedge",
    "negedge", "or", "and", "not", "signed", "unsigned", "function",
    "endfunction", "task", "endtask", "generate", "endgenerate", "genvar",
    "wait", "deassign", "force", "release",
})

#: Multi-character punctuation, longest first so the lexer can greedily match.
PUNCTUATIONS = (
    "<<<", ">>>", "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "~&", "~|", "~^", "^~", "**", "+:", "-:", "(", ")", "[", "]", "{",
    "}", ",", ";", ":", "?", "@", "#", "=", "+", "-", "*", "/", "%", "&",
    "|", "^", "~", "!", "<", ">", ".",
)


class Token:
    """One lexed token: its kind, its text and, for a number or a
    string, its decoded value.

    A token has no position.  The lexer shares one ``Token`` per
    keyword and punctuation mark across all texts, and one per distinct
    identifier, number or string within a text, so a token is the same
    object wherever its text repeats;
    :func:`~repro.hdl.lexer.position` works out a token's line and
    column from the source.  Instances are immutable by convention.
    """

    __slots__ = ("kind", "text", "value")

    def __init__(self, kind: TokenKind, text: str, value: object = None):
        self.kind = kind
        self.text = text
        self.value = value

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r})"
