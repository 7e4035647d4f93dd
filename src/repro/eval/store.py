"""Persistent campaign artifact store.

Campaigns used to be all-or-nothing: a crash at task 155 of 156 threw
away every completed simulation.  :class:`CampaignStore` makes campaign
results durable on disk so a killed campaign resumes without
resimulating and loses at most the items in flight, and repeated runs
skip finished items:

- **Keying.**  A result is addressed by a :func:`store_key` — the
  (task, method, seed, profile, criterion, group size) coordinates of
  the work item plus the :func:`context_fingerprint` of the resolved
  :class:`~repro.hdl.context.SimContext` and the LLM tier.  Only the
  *result-relevant* context fields enter the fingerprint
  (:data:`CONTEXT_RESULT_FIELDS`); operational knobs — worker counts,
  start methods, cache capacities, trace/store directories — do not,
  so resuming with ``--jobs 8`` reuses entries a serial run produced.

- **Layout.**  ``entries/<key-digest>.json`` is the whole record of
  one item: the canonical-JSON ``{version, key, run}`` payload and
  that payload's SHA-256.  ``manifest.json`` is a ``{"version": 3}``
  marker written once, when the store is created.  The store holds
  results only: caches are never written to it, and any other file in
  the root is ignored.

- **Writes.**  A put is one tmp-file + :func:`os.replace` rename, so a
  SIGKILL at any point leaves either the old entry or the new one on
  disk — never a torn record.  Concurrent writers share no file: each
  entry lands independently, and :meth:`CampaignStore.keys` reads them
  all.

- **Integrity.**  Every read re-hashes the payload bytes and checks
  the recorded key and version; a tampered, truncated or foreign entry
  raises a typed :class:`StoreIntegrityError` or :class:`StoreError`.
  The store never silently serves stale or corrupt data.

:func:`repro.eval.campaign.run_campaign` accepts ``store=`` /
``resume=`` (and the CLI ``campaign --store DIR --resume``), serial or
over the worker pool (``--jobs N``), and persists each item as it
completes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from ..hdl.context import SimContext
from .methods import TaskRun

#: On-disk schema version; bumped when the entry or marker shape
#: changes so a stale store fails loudly instead of half-resuming.
STORE_VERSION = 3

#: SimContext fields that can change a campaign item's *result* (and
#: therefore enter the store key).  Deliberately excludes operational
#: knobs — ``jobs``, ``start_method``, ``warm_start``, cache
#: capacities, ``trace_dir``, ``store_dir``, ``llm_fixture_dir`` — so
#: rerunning with different parallelism or paths still reuses entries.
CONTEXT_RESULT_FIELDS = ("max_time", "max_stmts", "llm_backend",
                         "llm_model", "llm_base_url")


class StoreError(RuntimeError):
    """A campaign store operation failed (bad layout, bad version)."""


class StoreIntegrityError(StoreError):
    """An entry failed verification: its payload bytes do not hash to
    the recorded SHA-256 (tampered, truncated or appended to), it does
    not decode, or it was recorded under a different key.  Raised
    instead of ever returning suspect data."""


def _canonical(obj) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace) — the hashed
    representation, so digests are stable across processes."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def llm_tier(context: SimContext) -> str:
    """The model tier a context's results come from.

    >>> llm_tier(SimContext())
    'synthetic'
    >>> llm_tier(SimContext(llm_backend="fixture+hf"))
    'fixture+hf'
    """
    return context.llm_backend or "synthetic"


def context_fingerprint(context: SimContext) -> str:
    """SHA-256 over the result-relevant context fields.

    Two contexts that differ only in operational knobs fingerprint
    identically, so a resume under different parallelism still hits:

    >>> a = SimContext(jobs=1)
    >>> b = SimContext(jobs=8, start_method="spawn")
    >>> context_fingerprint(a) == context_fingerprint(b)
    True
    >>> context_fingerprint(a) == context_fingerprint(
    ...     a.evolve(max_stmts=10_000))
    False
    """
    fields = {name: getattr(context, name)
              for name in CONTEXT_RESULT_FIELDS}
    return _sha256(_canonical(fields))


def store_key(method: str, task_id: str, seed: int, profile: str,
              criterion: str, group_size: int,
              context: SimContext) -> dict:
    """The addressing record for one campaign work item.

    Plain JSON-able dict so keys travel in entry files verbatim;
    :func:`key_digest` collapses one to a file name.
    """
    return {
        "task_id": task_id,
        "method": method,
        "seed": int(seed),
        "profile": profile,
        "criterion": criterion,
        "group_size": int(group_size),
        "tier": llm_tier(context),
        "context": context_fingerprint(context),
    }


def key_digest(key: dict) -> str:
    """Stable digest of a :func:`store_key` (the entry file name)."""
    return _sha256(_canonical(key))


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp file + rename.

    ``os.replace`` is atomic on POSIX: a reader (or a crash) sees the
    complete old file or the complete new file, never a prefix.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: An entry file: the payload's SHA-256, then the payload's canonical
#: bytes verbatim, so the hash covers exactly the bytes on disk.
_ENTRY = b'{"sha256":"%s","payload":%s}'
_ENTRY_RE = re.compile(rb'\{"sha256":"([0-9a-f]{64})","payload":(.*)\}',
                       re.DOTALL)


class CampaignStore:
    """On-disk campaign result store rooted at ``root``.

    Opening creates the layout if absent and checks the version marker:
    a foreign version raises :class:`StoreError`.  A missing marker is
    written after every entry has been read and verified; an unreadable
    one (a torn write, or tampering) is rewritten the same way, with a
    stderr warning.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._entries = self.root / "entries"
        self._marker = self.root / "manifest.json"
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        marked = self._marker_ok()
        self._entries.mkdir(parents=True, exist_ok=True)
        if not marked:
            for path in self._entries.glob("*.json"):
                try:
                    self._read_entry(path)
                except FileNotFoundError:  # evicted by another writer
                    pass
            _atomic_write(self._marker,
                          _canonical({"version": STORE_VERSION}))

    def _marker_ok(self) -> bool:
        """Does the root hold a readable marker of this version?  A
        foreign version raises; a missing or unreadable one is False."""
        try:
            raw = self._marker.read_bytes()
        except FileNotFoundError:
            return False
        try:
            version = json.loads(raw)["version"]
        except (ValueError, KeyError, TypeError) as exc:
            print(f"warning: campaign store marker {self._marker} is "
                  f"unreadable ({exc!r}); checking the entries and "
                  f"rewriting it", file=sys.stderr)
            return False
        if version != STORE_VERSION:
            raise StoreError(
                f"campaign store {self.root} has version {version!r}; "
                f"this build reads {STORE_VERSION}")
        return True

    # -- entries -------------------------------------------------------
    def _path(self, key: dict) -> Path:
        return self._entries / f"{key_digest(key)}.json"

    def _read_entry(self, path: Path) -> dict:
        """The verified ``{version, key, run}`` payload stored at
        ``path``; a missing file raises :class:`FileNotFoundError`."""
        data = path.read_bytes()
        match = _ENTRY_RE.fullmatch(data)
        if match is None or _sha256(match[2]) != match[1].decode():
            raise StoreIntegrityError(
                f"campaign store entry {path} failed its content hash "
                f"(tampered, truncated, or another store version)")
        try:
            payload = json.loads(match[2])
            version = payload["version"]
            payload["key"], payload["run"]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreIntegrityError(
                f"campaign store entry {path} is corrupt: {exc!r}") from exc
        if version != STORE_VERSION:
            raise StoreError(
                f"campaign store entry {path.name} has version "
                f"{version!r}; this build reads {STORE_VERSION}")
        return payload

    def get(self, key: dict) -> TaskRun | None:
        """The stored :class:`TaskRun` for ``key``, or ``None`` on a
        miss.  Every read re-verifies the entry's content hash and the
        recorded key; failures raise :class:`StoreIntegrityError`."""
        try:
            payload = self._read_entry(self._path(key))
        except FileNotFoundError:
            self._misses += 1
            return None
        if payload["key"] != key:
            raise StoreIntegrityError(
                f"entry for {key.get('task_id')!r} was recorded under a "
                f"different key")
        try:
            run = TaskRun.from_payload(payload["run"])
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreIntegrityError(
                f"stored run for {key.get('task_id')!r} does not decode: "
                f"{exc}") from exc
        self._hits += 1
        return run

    def contains(self, key: dict) -> bool:
        """Fast existence probe (no integrity verification)."""
        return self._path(key).exists()

    def put(self, key: dict, run: TaskRun) -> str:
        """Store ``run`` under ``key`` with one atomic file write, so a
        different result for the same key replaces the entry (last
        writer wins).  Returns the payload's SHA-256."""
        body = _canonical({"version": STORE_VERSION, "key": key,
                           "run": run.to_payload()})
        sha = _sha256(body)
        _atomic_write(self._path(key), _ENTRY % (sha.encode(), body))
        self._puts += 1
        return sha

    def evict(self, key: dict) -> bool:
        """Drop the entry for ``key``.  Returns whether one existed."""
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        self._evictions += 1
        return True

    def keys(self) -> tuple[dict, ...]:
        """Every stored key, read and verified from the entry files."""
        return tuple(self._read_entry(path)["key"]
                     for path in sorted(self._entries.glob("*.json")))

    def export_keys(self) -> tuple[str, ...]:
        """Key digests on disk, sorted (cheap introspection)."""
        return tuple(sorted(path.stem
                            for path in self._entries.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self._entries.glob("*.json"))

    def stats(self) -> dict:
        return {"hits": self._hits, "misses": self._misses,
                "puts": self._puts, "evictions": self._evictions,
                "entries": len(self)}
