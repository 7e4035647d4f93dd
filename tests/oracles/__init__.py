"""Test-only reference implementations the runtime is checked against.

The runtime keeps one execution path per layer; these are the slower,
simpler implementations the differential suites and the microbench
floors compare it with:

- :mod:`oracles.interpreter` — the statement-walking simulator;
- :mod:`oracles.reference_lexer` — the character-at-a-time lexer;
- :mod:`oracles.token_counter` — the word-loop token counter.

:data:`SIMULATORS` and :data:`LEXERS` pair each runtime entry point
with its oracle under a stable name, for tests parametrized over both.
The per-mutant sweep oracle stays in the runtime as lockstep's
fallback (:func:`repro.core.simulation._per_mutant_sweep`).
"""

from repro.hdl import simulate, tokenize

from .interpreter import InterpretedSimulator, simulate_interpreted
from .reference_lexer import ReferenceLexer, reference_tokenize

SIMULATORS = {"compiled": simulate, "interpret": simulate_interpreted}
LEXERS = {"master": tokenize, "reference": reference_tokenize}

__all__ = ["LEXERS", "SIMULATORS", "InterpretedSimulator", "ReferenceLexer",
           "reference_tokenize", "simulate_interpreted"]
