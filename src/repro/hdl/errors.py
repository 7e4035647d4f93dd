"""Exception hierarchy for the Verilog front end and simulator."""

from __future__ import annotations


class HdlError(Exception):
    """Base class for all HDL subsystem errors."""


class VerilogSyntaxError(HdlError):
    """Raised by the lexer/parser for malformed source.

    The AutoEval ``Eval0`` criterion is defined as "no syntax error"; this
    exception is the signal it keys on.

    ``line``/``column`` are 1-based (0 meaning "unknown"); both lexer
    implementations must agree on them exactly — the differential suite
    compares ``(line, column, bare_message)`` across lexers, where
    ``bare_message`` is the diagnostic before the ``line L:C:`` prefix
    is baked into ``args``.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        self.bare_message = message
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class ElaborationError(HdlError):
    """Raised when a parsed design cannot be elaborated (unknown
    identifiers, port mismatches, unsupported constructs, ...)."""


class SimulationError(HdlError):
    """Raised for runtime failures inside the simulator."""


class FinishRequest(Exception):
    """Internal control-flow signal raised by ``$finish``/``$stop``.

    Deliberately *not* an :class:`HdlError`: it must never be reported as
    a failure, only caught by the scheduler (which sets
    ``finish_requested``).  Compiled programs and the test suite's
    reference interpreter both raise this class, so the scheduler's
    catch sites work for either.
    """


class SimulationLimit(SimulationError):
    """Raised when a run exceeds its event or time budget.

    Runaway testbenches (e.g. a driver that never calls ``$finish``) are
    reported through this exception instead of hanging the host process.
    """
