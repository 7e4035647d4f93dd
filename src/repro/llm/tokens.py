"""Approximate token counting for usage metering.

The paper reports per-task input/output token costs (Fig. 6b).  Offline we
cannot call a provider tokenizer, so we use the standard engineering
approximation: one token per word-piece of up to four characters plus one
per punctuation symbol.  On typical English/code text this tracks BPE
tokenizers within ~10-15%, which is sufficient for reproducing the relative
token-cost ordering between validation criteria.
"""

from __future__ import annotations

import re

# One match per token: a run of up to four word characters (greedy
# matching splits a word of length L into ceil(L / 4) pieces) or a
# single symbol.  Whitespace counts nothing.
_PIECE_RE = re.compile(r"[A-Za-z0-9_]{1,4}|[^\sA-Za-z0-9_]")


def approx_token_count(text: str) -> int:
    """Approximate number of BPE tokens in ``text``.

    >>> approx_token_count("internationalization")   # 20 chars: 5 pieces
    5
    >>> approx_token_count("assign out = a + b;")   # "assi" "gn" ...
    8
    """
    return len(_PIECE_RE.findall(text))
