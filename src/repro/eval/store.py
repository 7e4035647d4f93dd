"""Persistent, content-addressed campaign artifact store.

Campaigns used to be all-or-nothing: a crash at task 155 of 156 threw
away every completed simulation, and repeated CLI runs started from a
blank process.  :class:`CampaignStore` makes campaign results durable
on disk so a killed campaign resumes without resimulating, repeated
runs skip finished items, and shard workers can share one result set:

- **Keying.**  A result is addressed by a :func:`store_key` — the
  (task, method, seed, profile, criterion, group size) coordinates of
  the work item plus the :func:`context_fingerprint` of the resolved
  :class:`~repro.hdl.context.SimContext` and the LLM tier.  Only the
  *result-relevant* context fields enter the fingerprint
  (:data:`CONTEXT_RESULT_FIELDS`); operational knobs — worker counts,
  start methods, cache capacities, trace/store directories — do not,
  so resuming with ``--jobs 8`` reuses entries a serial run produced.

- **Layout.**  ``blobs/<sha256>.json`` holds the canonical-JSON result
  payloads, content-addressed: the file name *is* the SHA-256 of the
  bytes, verified on every read.  ``entries/<key-digest>.json`` maps a
  key digest to its blob (the durable truth — one file per entry, so
  concurrent writers never contend on shared state).  ``manifest.json``
  is a versioned index rebuilt from the entry files when torn.  The
  store holds results only: caches are never written to it, and any
  other file in the root is ignored.

- **Writes** go through tmp-file + :func:`os.replace` rename, so a
  SIGKILL at any point leaves either the old state or the new state on
  disk — never a torn blob.  Two processes sharing a store race only
  on the advisory manifest (last writer wins); their entry and blob
  files land independently and :meth:`CampaignStore.keys` reads them
  all.

- **Integrity.**  A tampered, truncated, or dangling blob raises a
  typed :class:`StoreIntegrityError` at read time; the store never
  silently serves stale or corrupt data.

:func:`repro.eval.campaign.run_campaign` accepts ``store=`` /
``resume=`` (and the CLI ``campaign --store DIR --resume``); the shard
coordinator (``campaign --shards N``) fans task slices out to worker
processes that all read and write one store.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from ..hdl.context import SimContext
from .methods import TaskRun

#: On-disk schema version; bumped when blob/entry/manifest shapes
#: change so a stale store fails loudly instead of half-resuming.
STORE_VERSION = 2

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
    """On-disk state failed verification: a blob whose bytes do not
    hash to its content address, a truncated or unparseable record, an
    entry pointing at a missing blob, or a payload recorded under a
    different key.  Raised instead of ever returning suspect data."""


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

    Plain JSON-able dict so keys travel in manifests and entry files
    verbatim; :func:`key_digest` collapses one to a file name.
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


class CampaignStore:
    """On-disk campaign result store rooted at ``root``.

    Opening creates the layout if absent.  A manifest that fails to
    parse (a torn write from a crashed process, or tampering) is
    *recovered* by rebuilding the index from the entry files — with a
    stderr warning — because entries, not the manifest, are the durable
    truth; an entry or blob that fails verification raises
    :class:`StoreIntegrityError` instead.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._blobs = self.root / "blobs"
        self._entries = self.root / "entries"
        self._manifest_path = self.root / "manifest.json"
        self._blobs.mkdir(parents=True, exist_ok=True)
        self._entries.mkdir(parents=True, exist_ok=True)
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._recovered_manifest = False
        self._index = self._load_manifest()

    # -- manifest ------------------------------------------------------
    def _load_manifest(self) -> dict:
        try:
            raw = self._manifest_path.read_bytes()
        except FileNotFoundError:
            return self._rebuild_index(write=False)
        try:
            manifest = json.loads(raw)
            version = manifest["version"]
            entries = manifest["entries"]
            if not isinstance(entries, dict):
                raise TypeError("entries is not an object")
        except (ValueError, KeyError, TypeError) as exc:
            # A torn manifest must never lose completed work: the entry
            # files are the truth, so recover the index from them and
            # say so loudly.
            print(f"warning: campaign store manifest "
                  f"{self._manifest_path} is unreadable ({exc}); "
                  f"rebuilding from entry files", file=sys.stderr)
            self._recovered_manifest = True
            return self._rebuild_index(write=True)
        if version != STORE_VERSION:
            raise StoreError(
                f"campaign store {self.root} has manifest version "
                f"{version!r}; this build reads {STORE_VERSION}")
        return dict(entries)

    def _rebuild_index(self, write: bool) -> dict:
        index = {}
        for path in sorted(self._entries.glob("*.json")):
            entry = self._read_entry_file(path)
            index[path.stem] = {"key": entry["key"], "blob": entry["blob"]}
        self._index = index
        if write:
            self.flush_manifest()
        return index

    def flush_manifest(self) -> Path:
        """Write the advisory index (atomic, last-writer-wins).

        Entries from concurrent writers that this process never saw are
        not lost — :meth:`keys` and :meth:`get` read the entry files —
        the manifest only accelerates listings and ships in CI
        artifacts."""
        manifest = {"version": STORE_VERSION,
                    "count": len(self._index),
                    "entries": self._index}
        _atomic_write(self._manifest_path,
                      json.dumps(manifest, sort_keys=True,
                                 indent=1).encode("utf-8") + b"\n")
        return self._manifest_path

    def manifest(self) -> dict:
        """The current in-memory index: ``{digest: {key, blob}}``."""
        return dict(self._index)

    @property
    def recovered_manifest(self) -> bool:
        """Did opening this store rebuild a torn manifest?"""
        return self._recovered_manifest

    # -- entries and blobs ---------------------------------------------
    def _read_entry_file(self, path: Path) -> dict:
        try:
            entry = json.loads(path.read_bytes())
            if entry["version"] != STORE_VERSION:
                raise StoreError(
                    f"entry {path.name} has version "
                    f"{entry['version']!r}; this build reads "
                    f"{STORE_VERSION}")
            entry["key"]
            entry["blob"]
        except StoreError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreIntegrityError(
                f"campaign store entry {path} is corrupt: {exc}") from exc
        return entry

    def _read_blob(self, blob_sha: str, key: dict) -> dict:
        path = self._blobs / f"{blob_sha}.json"
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise StoreIntegrityError(
                f"entry for {key.get('task_id')!r} points at missing "
                f"blob {blob_sha}") from None
        if _sha256(data) != blob_sha:
            raise StoreIntegrityError(
                f"blob {blob_sha} failed its content hash "
                f"(tampered or truncated)")
        try:
            payload = json.loads(data)
            if payload["version"] != STORE_VERSION:
                raise StoreIntegrityError(
                    f"blob {blob_sha} has version "
                    f"{payload['version']!r}")
            if payload["key"] != key:
                raise StoreIntegrityError(
                    f"blob {blob_sha} was recorded under a different "
                    f"key than the entry that references it")
        except StoreIntegrityError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreIntegrityError(
                f"blob {blob_sha} is corrupt: {exc}") from exc
        return payload

    def get(self, key: dict) -> TaskRun | None:
        """The stored :class:`TaskRun` for ``key``, or ``None`` on a
        miss.  Every read re-verifies the blob's content hash and the
        recorded key; failures raise :class:`StoreIntegrityError`."""
        digest = key_digest(key)
        path = self._entries / f"{digest}.json"
        try:
            entry = self._read_entry_file(path)
        except FileNotFoundError:
            self._misses += 1
            return None
        payload = self._read_blob(entry["blob"], key)
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
        return (self._entries / f"{key_digest(key)}.json").exists()

    def put(self, key: dict, run: TaskRun) -> str:
        """Store ``run`` under ``key``; returns the blob's SHA-256.

        Blob first, entry second: a kill between the two leaves an
        unreferenced blob (garbage, harmless), never an entry pointing
        at a missing blob.  Re-putting an identical result is a no-op
        at the blob layer (content addressing); a different result for
        the same key atomically replaces the entry (last writer wins).
        """
        payload = {"version": STORE_VERSION, "key": key,
                   "run": run.to_payload()}
        blob = _canonical(payload)
        blob_sha = _sha256(blob)
        blob_path = self._blobs / f"{blob_sha}.json"
        if not blob_path.exists():
            _atomic_write(blob_path, blob)
        digest = key_digest(key)
        entry = {"version": STORE_VERSION, "key": key, "blob": blob_sha}
        _atomic_write(self._entries / f"{digest}.json",
                      _canonical(entry))
        self._index[digest] = {"key": key, "blob": blob_sha}
        self._puts += 1
        self.flush_manifest()
        return blob_sha

    def evict(self, key: dict) -> bool:
        """Drop the entry for ``key`` (its blob stays content-addressed
        garbage).  Returns whether an entry existed."""
        digest = key_digest(key)
        try:
            (self._entries / f"{digest}.json").unlink()
        except FileNotFoundError:
            return False
        self._index.pop(digest, None)
        self._evictions += 1
        self.flush_manifest()
        return True

    def keys(self) -> tuple[dict, ...]:
        """Every stored key, read from the entry files (sees concurrent
        writers' entries the in-memory manifest missed)."""
        return tuple(self._read_entry_file(path)["key"]
                     for path in sorted(self._entries.glob("*.json")))

    def export_keys(self) -> tuple[str, ...]:
        """Key digests on disk (cheap introspection; mirrors
        :meth:`repro.core.caches.ScopedLruCache.export_keys`)."""
        return tuple(sorted(path.stem
                            for path in self._entries.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self._entries.glob("*.json"))

    def stats(self) -> dict:
        return {"hits": self._hits, "misses": self._misses,
                "puts": self._puts, "evictions": self._evictions,
                "entries": len(self)}
