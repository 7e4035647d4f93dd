"""Shared pytest configuration.

Hypothesis's default per-example deadline (200 ms) is a flake source on
loaded machines — campaign workers and property tests share cores here —
so the suite runs with the deadline disabled and a bounded example count.

Loading this file puts ``tests/`` on ``sys.path`` (pytest's default
``prepend`` import mode), so tests import the reference implementations
in ``tests/oracles/`` as ``oracles``.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")
