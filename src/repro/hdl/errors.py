"""Exception hierarchy for the Verilog front end and simulator."""

from __future__ import annotations

from typing import NoReturn


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


class FailureShape:
    """What a cache keeps of a raised error: its type, ``args`` and
    position attributes, never the live instance.

    No traceback frames are pinned, and every :meth:`reraise` raises a
    fresh instance that renders identically, so concurrent cache hits
    share nothing mutable.

    >>> shape = FailureShape(VerilogSyntaxError("unexpected ';'", 3, 7))
    >>> try:
    ...     shape.reraise()
    ... except VerilogSyntaxError as exc:
    ...     print(exc, (exc.line, exc.column, exc.bare_message))
    line 3:7: unexpected ';' (3, 7, "unexpected ';'")
    """

    __slots__ = ("exc_type", "args", "attrs")

    _ATTRS = ("line", "column", "bare_message")

    def __init__(self, exc: BaseException):
        self.exc_type = type(exc)
        self.args = exc.args
        self.attrs = tuple((name, getattr(exc, name))
                           for name in self._ATTRS if hasattr(exc, name))

    def reraise(self) -> NoReturn:
        # Bypass __init__ (VerilogSyntaxError's would re-prefix
        # "line L:C:" onto the already-rendered message).
        exc = self.exc_type.__new__(self.exc_type)
        exc.args = self.args
        for name, value in self.attrs:
            setattr(exc, name, value)
        raise exc
