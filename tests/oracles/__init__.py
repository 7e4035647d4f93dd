"""Test-only reference implementations the runtime is checked against.

The runtime keeps one execution path per layer; these are the slower,
simpler implementations the differential suites and the microbench
floors compare it with:

- :mod:`oracles.interpreter` — the statement-walking simulator;
- :mod:`oracles.reference_lexer` — the character-at-a-time lexer;
- :mod:`oracles.token_counter` — the word-loop token counter;
- :mod:`oracles.demux` — the line-by-line lockstep demultiplexer.

:data:`SIMULATORS` and :data:`LEXERS` pair each runtime entry point
with its oracle under a stable name, for tests parametrized over both.
The per-mutant sweep oracle stays in the runtime as lockstep's
fallback (:func:`repro.core.simulation._per_mutant_sweep`).
"""

from repro.hdl import simulate, tokenize
from repro.hdl.lexer import _SCAN_RE, _TRIVIA_RE, position

from .interpreter import InterpretedSimulator, simulate_interpreted
from .reference_lexer import ReferenceLexer, reference_tokenize

SIMULATORS = {"compiled": simulate, "interpret": simulate_interpreted}
LEXERS = {"master": tokenize, "reference": reference_tokenize}


#: A runtime stream longer than this checks :func:`position` at a
#: sample of its tokens: each call rescans up to the token it places.
_POSITION_SAMPLE = 64


def token_positions(source: str, stream) -> list[tuple[int, int]]:
    """``(line, column)`` of every token of ``source``'s stream from
    either lexer.  A reference token carries its position.  The
    runtime's are read in one pass of the scan that :func:`position`
    rescans per token, and :func:`position` must agree with that pass
    (at every token of a short stream, at a sample of a long one)."""
    if hasattr(stream[0], "line"):
        return [(t.line, t.column) for t in stream]
    positions = []
    line, line_start, offset = 1, 0, 0
    for match in _SCAN_RE.finditer(source, _TRIVIA_RE.match(source).end()):
        start = match.start()
        newlines = source.count("\n", offset, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", offset, start) + 1
        offset = start
        positions.append((line, start - line_start + 1))
    n = len(positions)
    for i in {*range(0, n, max(1, n // _POSITION_SAMPLE)), n - 1}:
        assert position(source, i) == positions[i], (source, i)
    return positions


__all__ = ["LEXERS", "SIMULATORS", "InterpretedSimulator", "ReferenceLexer",
           "reference_tokenize", "simulate_interpreted", "token_positions"]
