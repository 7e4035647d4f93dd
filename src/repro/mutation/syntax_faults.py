"""Verilog syntax-fault injection.

Models the syntax errors LLMs make in generated HDL.  Every corruption is
verified to actually break parsing (otherwise the next strategy is tried),
so the Eval0 bookkeeping stays truthful.
"""

from __future__ import annotations

import random
import re

from ..hdl.errors import VerilogSyntaxError
from ..hdl.parser import parse_source_cached
from ..util import derive_rng


def _drop_semicolon(src: str, rng: random.Random) -> str | None:
    positions = [m.start() for m in re.finditer(";", src)]
    if not positions:
        return None
    pos = rng.choice(positions)
    return src[:pos] + src[pos + 1:]


def _typo_keyword(src: str, rng: random.Random) -> str | None:
    typos = {"endmodule": "endmodul", "begin": "begn", "assign": "asign",
             "always": "alway", "module": "modul"}
    present = [kw for kw in typos if kw in src]
    if not present:
        return None
    keyword = rng.choice(present)
    return src.replace(keyword, typos[keyword], 1)


def _unbalance_paren(src: str, rng: random.Random) -> str | None:
    positions = [m.start() for m in re.finditer(r"\)", src)]
    if not positions:
        return None
    pos = rng.choice(positions)
    return src[:pos] + src[pos + 1:]


def _drop_end(src: str, rng: random.Random) -> str | None:
    positions = [m.start() for m in re.finditer(r"\bend\b", src)]
    if not positions:
        return None
    pos = rng.choice(positions)
    return src[:pos] + src[pos + 3:]


_STRATEGIES = (_drop_semicolon, _typo_keyword, _unbalance_paren, _drop_end)


def _parses(src: str) -> bool:
    # Through the parse memo: the broken text this check rejects is the
    # one every later syntax check of the faulty reply looks up.
    try:
        parse_source_cached(src)
    except VerilogSyntaxError:
        return False
    except RecursionError:  # pragma: no cover - defensive
        return False
    return True


def inject_verilog_syntax_fault(src: str, seed: object) -> str:
    """Return a corrupted copy of ``src`` that fails to parse."""
    rng = derive_rng("vsyntax", seed)
    strategies = list(_STRATEGIES)
    rng.shuffle(strategies)
    for strategy in strategies:
        broken = strategy(src, rng)
        if broken is not None and not _parses(broken):
            return broken
    # Guaranteed fallback: dangling token soup at the end.
    return src + "\nmodule broken (\n"
