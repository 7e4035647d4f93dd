"""Corpus budget for the differential-fuzz suites.

``REPRO_FUZZ_PROGRAMS`` sizes each corpus (default 200; CI smoke uses a
smaller budget, the nightly long-fuzz job a larger one) and
``REPRO_FUZZ_SEED`` fixes the base seed so failures reproduce.  Only
the test suites read them; a malformed value warns on stderr and falls
back to its default, like the runtime's ``REPRO_*`` knobs.
"""

import os
import sys

DEFAULT_FUZZ_PROGRAMS = 200
DEFAULT_FUZZ_SEED = 1729


def _read_int(environ, name: str, default: int, minimum=None) -> int:
    raw = environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        print(f"warning: {name}={raw!r} is not a valid budget; "
              f"using the default {default}", file=sys.stderr)
        return default
    return value


def fuzz_budget(environ=None) -> tuple[int, int]:
    """``(programs, seed)`` from ``environ`` (default ``os.environ``).

    >>> fuzz_budget({})
    (200, 1729)
    >>> fuzz_budget({"REPRO_FUZZ_PROGRAMS": "17", "REPRO_FUZZ_SEED": "-3"})
    (17, -3)
    """
    if environ is None:
        environ = os.environ
    return (_read_int(environ, "REPRO_FUZZ_PROGRAMS",
                      DEFAULT_FUZZ_PROGRAMS, minimum=1),
            _read_int(environ, "REPRO_FUZZ_SEED", DEFAULT_FUZZ_SEED))
