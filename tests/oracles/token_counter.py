"""The word-loop token counter: the reference for
:func:`repro.llm.tokens.approx_token_count`.

It splits text into whole words and single symbols, then charges each
word one token per started four characters.  The runtime counts the
same pieces with one regex.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")

# Average characters per BPE token inside an alphanumeric word.
_CHARS_PER_TOKEN = 4


def reference_token_count(text: str) -> int:
    """Approximate number of BPE tokens in ``text``, word by word."""
    if not text:
        return 0
    count = 0
    for piece in _WORD_RE.findall(text):
        if piece[0].isalnum() or piece[0] == "_":
            count += max(1, -(-len(piece) // _CHARS_PER_TOKEN))
        else:
            count += 1
    return count
