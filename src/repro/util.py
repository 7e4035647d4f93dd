"""Shared utilities: stable hashing, seeded RNG derivation, text helpers,
and the thread-safe LRU cache the caching layers are built on.

Determinism is a core requirement of this reproduction: every stochastic
decision made by the synthetic LLM and the mutation engine must be a pure
function of (global seed, task id, stage, attempt).  Python's builtin
``hash`` is salted per process, so all derived seeds go through SHA-256.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
from collections import OrderedDict
from typing import Callable, Iterable


def stable_hash(*parts: object) -> int:
    """A process-independent 64-bit hash of the given parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big")


def derive_rng(*parts: object) -> random.Random:
    """A ``random.Random`` deterministically seeded from the parts."""
    return random.Random(stable_hash(*parts))


class ExtractionError(ValueError):
    """No usable code block could be recovered from a model reply.

    Raised by :func:`extract_code_block_checked` so pipeline stages can
    route a malformed reply to a retry instead of shipping prose (or an
    empty string) as source code.  ``text`` carries the offending reply
    for diagnostics.
    """

    def __init__(self, message: str, text: str = ""):
        super().__init__(message)
        self.text = text


#: Info-string aliases models actually emit.  Both the requested language
#: and a fence's tag are normalised through this table before comparison.
_LANG_ALIASES = {
    "py": "python",
    "py3": "python",
    "python3": "python",
    "v": "verilog",
    "sv": "verilog",
    "vlog": "verilog",
    "sverilog": "verilog",
    "systemverilog": "verilog",
    "verilog2001": "verilog",
}

_FENCE_OPEN_RE = re.compile(r"^\s*```(?P<info>[^`\n]*)$")
_FENCE_CLOSE_RE = re.compile(r"^\s*```\s*$")
_FENCE_GLUED_CLOSE_RE = re.compile(r"^(?P<rest>[^`]*[^`\s])```\s*$")
# Chatty models open a fence on the same line as their lead-in prose
# ("Here is the fixed module: ```verilog").  Only recognised *outside*
# a block; the info string is one tag-shaped token, so prose that
# merely mentions ``` does not open a phantom block.
_FENCE_PROSE_OPEN_RE = re.compile(
    r"^(?P<pre>[^`]*\S)\s*```(?P<info>[\w.+-]*)\s*$")


def _normalize_lang(tag: str) -> str:
    tag = tag.strip().split()[0].lower() if tag.strip() else ""
    return _LANG_ALIASES.get(tag, tag)


def extract_code_blocks(text: str, language: str | None = None) -> list[str]:
    """Extract fenced code blocks from a chat response.

    ``language`` filters on the fence info string (``verilog``, ``python``);
    ``None`` returns every block.  This mirrors how the original pipeline
    parses LLM chat responses, hardened for the malformed output real
    models produce:

    - an *unclosed* fence yields everything to the end of the reply;
    - a fence "closed" by a second opening fence (```` ```python ````
      twice) ends the first block and starts a new one;
    - a fence opened on the same line as lead-in prose ("Here is the
      code: ```verilog") still opens a block;
    - a closing fence with trailing commentary ("``` Hope this
      helps!") still closes the block (a single tag-shaped token after
      the backticks is a re-opened fence instead);
    - language tags are matched through common aliases (``py``,
      ``python3``, ``sv``, ``systemverilog``, ``vlog``, …),
      case-insensitively.
    """
    want = None if language is None else _normalize_lang(language)
    blocks: list[tuple[str, str]] = []
    body: list[str] | None = None
    lang = ""

    def flush() -> None:
        nonlocal body
        if body is not None:
            blocks.append((lang, "\n".join(body) + "\n" if body else ""))
        body = None

    for line in text.split("\n"):
        if body is None:
            match = _FENCE_OPEN_RE.match(line) or \
                _FENCE_PROSE_OPEN_RE.match(line)
            if match is not None:
                lang = _normalize_lang(match.group("info"))
                body = []
            continue
        if _FENCE_CLOSE_RE.match(line):
            flush()
            continue
        match = _FENCE_OPEN_RE.match(line)
        if match is not None:
            info = match.group("info").strip()
            if len(info.split()) > 1:
                # a closing fence with trailing commentary, not a
                # re-opened fence (language tags are one token)
                flush()
                continue
            flush()  # nested / re-opened fence: split here
            lang = _normalize_lang(info)
            body = []
            continue
        glued = _FENCE_GLUED_CLOSE_RE.match(line)
        if glued is not None:  # code line with the closing fence glued on
            body.append(glued.group("rest"))
            flush()
            continue
        body.append(line)
    if body and body[-1] == "":
        body.pop()  # trailing-newline artifact of splitting at EOF
    flush()  # unclosed fence: keep what was collected

    return [block for block_lang, block in blocks
            if want is None or block_lang == want]


def extract_first_code_block(text: str, language: str | None = None) -> str:
    """First fenced code block, or the whole text if none is fenced.

    Falling back to the raw text mirrors the leniency real pipelines need
    when a model answers with bare code.
    """
    blocks = extract_code_blocks(text, language)
    if blocks:
        return blocks[0]
    return text


def extract_code_block_checked(text: str,
                               language: str | None = None) -> str:
    """Like :func:`extract_first_code_block`, but *checked*.

    Raises :class:`ExtractionError` instead of silently degrading when

    - the reply contains fences but none carries the requested language
      (prose around a block of the wrong kind), or
    - the recovered block (or the bare reply) is blank.

    A fence-free, non-blank reply is still returned whole — bare code is
    legitimate model output; prose-only replies with stray fences are
    not.

    >>> extract_code_block_checked("```python\\nx = 1\\n```", "python")
    'x = 1\\n'
    >>> extract_code_block_checked("Sorry, no code.\\n```\\n```", "python")
    Traceback (most recent call last):
        ...
    repro.util.ExtractionError: no python code block in reply
    """
    blocks = extract_code_blocks(text, language)
    if blocks:
        if not blocks[0].strip():
            raise ExtractionError(
                f"first {language or 'code'} block is empty", text)
        return blocks[0]
    if "```" in text:
        raise ExtractionError(
            f"no {language or 'code'} code block in reply", text)
    if not text.strip():
        raise ExtractionError("reply is empty", text)
    return text


def indent(text: str, prefix: str = "    ") -> str:
    """Indent every non-empty line of ``text`` by ``prefix``."""
    return "\n".join(
        prefix + line if line.strip() else line
        for line in text.splitlines()
    )


def clamp(value: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Clamp ``value`` into ``[lo, hi]``."""
    return max(lo, min(hi, value))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def format_ratio(value: float) -> str:
    """Format a ratio in the paper's style, e.g. ``70.13%``.

    >>> format_ratio(0.70130)
    '70.13%'
    """
    return f"{value * 100:.2f}%"


class LruCache:
    """A thread-safe LRU mapping with hit/miss telemetry.

    Unlike :func:`functools.lru_cache`, it can *insert* entries computed
    elsewhere (a probe, a fallible call, then :meth:`insert`) and vary
    capacity per call site, while keeping ``lru_cache``'s observable
    policy: move-to-front on hit, evict the least recently used entry
    on overflow.

    >>> cache = LruCache(capacity=2)
    >>> cache.get_or_create("a", lambda: 1)
    1
    >>> cache.get_or_create("a", lambda: 99)   # hit: factory not called
    1
    >>> cache.get_or_create("b", lambda: 2)
    2
    >>> cache.get_or_create("c", lambda: 3)    # evicts "a" (LRU)
    3
    >>> sorted(cache.export())
    ['b', 'c']
    >>> cache.stats() == {"hits": 1, "misses": 3, "size": 2}
    True
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get_or_create(self, key, factory: Callable[[], object]):
        """Return the cached value for ``key``, computing it on a miss.

        The factory runs *outside* the lock (factories here parse or
        elaborate — far too slow to serialize); when two threads race on
        the same missing key, the first insertion wins and both callers
        observe that one object, mirroring the identity-stability the
        template tests pin.
        """
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._hits += 1
                self._data.move_to_end(key)
                return value
            self._misses += 1
        value = factory()
        return self.insert(key, value)

    def get(self, key, default=None):
        """Return the cached value for ``key`` without computing one.

        Counts as a hit or miss and refreshes recency like
        :meth:`get_or_create`, for layers whose values are produced by
        fallible external calls — the caller probes, performs the call,
        then :meth:`insert`\\ s, so a raised error never caches.
        """
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self._misses += 1
                return default
            self._hits += 1
            self._data.move_to_end(key)
            return value

    def insert(self, key, value):
        """Insert ``value`` unless ``key`` arrived concurrently; returns
        the winning (cached) value."""
        with self._lock:
            existing = self._data.get(key)
            if existing is not None:
                self._data.move_to_end(key)
                return existing
            while len(self._data) >= self.capacity:
                self._data.popitem(last=False)
            self._data[key] = value
            return value

    def clear(self) -> None:
        """Drop every entry and zero the counters (mirrors
        ``functools.lru_cache.cache_clear``, which the caching layers
        were built on — tests assert post-clear counters start fresh)."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "size": len(self._data)}

    def export(self) -> dict:
        """The current entries, least recently used first."""
        with self._lock:
            return dict(self._data)
