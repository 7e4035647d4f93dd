"""``repro.hdl`` — Verilog subset front end and event-driven simulator.

This package replaces the Icarus Verilog dependency of the original
CorrectBench system.  Execution is a four-stage pipeline::

    source text --parse--> AST --elaborate--> Design --compile--> closures --run--> SimulationResult

**parse** (:mod:`repro.hdl.lexer` + :mod:`repro.hdl.parser`)
    Lexes and parses the supported Verilog subset into immutable
    (frozen-dataclass) AST nodes.  Lexing is one C-level ``findall``
    of a *master pattern* per text, with positions worked out only for
    errors; the lexer differential fuzz suite pins it to the original
    character-at-a-time lexer, which the test suite keeps as a
    reference, with identical token streams, token positions and error
    positions.  :func:`parse_source_cached` is the
    text-keyed parse cache: identical source text is parsed once
    process-wide, texts that parse to equal trees share one tree, and
    the shared AST is safe because nodes are immutable.  A text that fails to lex or parse is held as its
    error's shape, so it is lexed once too and every later call
    re-raises an identical :class:`VerilogSyntaxError`.

**elaborate** (:mod:`repro.hdl.elaborate`)
    Resolves parameters (folding constants through the compiled
    expression closures), flattens the instance hierarchy and produces a
    :class:`Design`: flat ``Signal``/``Memory`` objects plus a list of
    ``ProcSpec`` processes.  Port connections to plain same-width parent
    nets are *aliased* (child and parent share one ``Signal``), so no
    binding process or extra delta hop exists for them; mismatched or
    expression-valued connections fall back to combinational binding
    processes.

**compile** (:mod:`repro.hdl.compile`)
    Lowers each process body once into *slot-indexed* Python closures:
    expressions through :mod:`repro.hdl.eval` (widths, signedness and
    constant indices resolved at compile time, no-op resizes elided,
    one closure per signal read or constant value in a program, and
    left-deep operator runs lowered in a loop),
    statement sequences into flat op lists whose generators only yield
    at real suspension points, format strings into pre-parsed segments.
    Closures reference runtime objects through integer slots into a
    per-elaboration ``frame`` tuple, so programs are scope-polymorphic:
    they are cached globally by AST value + structural signature and
    merely re-*bound* (a cheap slot-table build) for each new
    elaboration — pairing one driver with N DUT designs compiles it
    once.  The bound program is then cached on the ``ProcSpec``, so
    re-simulating the same elaborated design skips binding too.

**run** (:mod:`repro.hdl.simulator`)
    A three-region (active / inactive / NBA) event scheduler per the
    simplified IEEE 1364 model, executing the closure programs.  The
    test suite keeps a statement-walking interpreter as the behavioural
    reference: the golden-equivalence suite asserts identical results on
    the whole fixture corpus and every benchmark problem.

One layer up, :mod:`repro.core.simulation` adds design-level reuse: an
elaboration cache keyed by source text that stamps fresh runtime state
per run, and batched driver/testbench execution APIs.

Public surface:

- :func:`parse_source` / :func:`parse_module` — syntax checking and AST,
- :func:`compile_design` — parse + elaborate (the Eval0 "compiles" check),
- :func:`simulate` — run a design whose testbench calls ``$finish``,
- :class:`SimContext` / :func:`use_context` / :func:`current_context` —
  the request-scoped configuration API (limits, jobs, pool, LLM tier);
  resolution order is explicit argument > active context > env-seeded
  root context,
- :class:`Logic` — 4-state fixed-width vectors,
- :mod:`repro.hdl.unparse` — AST back to source (used by the mutation
  engine).
"""

from .context import (SimContext, current_context, resolve_jobs,
                      root_context, set_root_context, use_context)
from .errors import (ElaborationError, HdlError, SimulationError,
                     SimulationLimit, VerilogSyntaxError)
from .lexer import tokenize, tokenize_cached
from .logic import Logic
from .parser import parse_module, parse_source, parse_source_cached
from .simulator import (SimulationResult, Simulator, compile_design,
                        simulate)
from .unparse import unparse_expr, unparse_module, unparse_source

__all__ = [
    "ElaborationError",
    "HdlError",
    "Logic",
    "SimContext",
    "SimulationError",
    "SimulationLimit",
    "SimulationResult",
    "Simulator",
    "VerilogSyntaxError",
    "compile_design",
    "current_context",
    "parse_module",
    "parse_source",
    "parse_source_cached",
    "resolve_jobs",
    "root_context",
    "set_root_context",
    "simulate",
    "use_context",
    "tokenize",
    "tokenize_cached",
    "unparse_expr",
    "unparse_module",
    "unparse_source",
]
