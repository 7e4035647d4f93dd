"""Property battery for the campaign artifact store.

Hypothesis drives arbitrary put/get/evict sequences against an
in-memory model dict, then reopens the store to check durability; a
second set of properties corrupts on-disk state arbitrarily and
asserts the store either answers correctly or raises the typed
integrity error — never silently serves suspect data.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from repro.eval import (CampaignStore, EvalLevel, StoreError,
                        StoreIntegrityError, TaskRun, store_key)
from repro.eval.store import STORE_VERSION, key_digest
from repro.hdl.context import SimContext
from repro.llm.base import Usage

CONTEXT = SimContext()
TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")
METHODS = ("baseline", "autobench")


def _key(task_index: int, method_index: int, seed: int) -> dict:
    return store_key(METHODS[method_index], TASKS[task_index], seed,
                     "gpt-4o", "S1", 20, CONTEXT)


def _run(task_index: int, method_index: int, seed: int,
         level_index: int) -> TaskRun:
    return TaskRun(method=METHODS[method_index],
                   task_id=TASKS[task_index], kind="CMB", seed=seed,
                   level=EvalLevel(level_index),
                   usage=Usage(level_index, seed))


# One op: ("put"|"get"|"evict", task_index, method_index, seed,
# level_index) — a small key space so sequences revisit keys.
_ops = st.lists(
    st.tuples(st.sampled_from(("put", "get", "evict")),
              st.integers(0, len(TASKS) - 1),
              st.integers(0, len(METHODS) - 1),
              st.integers(0, 2), st.integers(0, 3)),
    max_size=30)


@given(_ops)
def test_store_matches_model_and_survives_reopen(ops):
    root = Path(tempfile.mkdtemp(prefix="repro-store-prop-"))
    try:
        store = CampaignStore(root)
        model: dict[str, TaskRun] = {}
        for op, task_index, method_index, seed, level_index in ops:
            key = _key(task_index, method_index, seed)
            digest = key_digest(key)
            if op == "put":
                run = _run(task_index, method_index, seed, level_index)
                store.put(key, run)
                model[digest] = run
            elif op == "get":
                assert store.get(key) == model.get(digest)
            else:
                assert store.evict(key) == (digest in model)
                model.pop(digest, None)
        # Live handle agrees with the model...
        assert len(store) == len(model)
        assert store.export_keys() == tuple(sorted(model))
        # ...and so does a cold reopen: everything put and not evicted
        # is durable, byte-verified, and equal to what went in.
        reopened = CampaignStore(root)
        assert not reopened.recovered_manifest
        assert len(reopened) == len(model)
        for key_record in reopened.keys():
            assert reopened.get(key_record) \
                == model[key_digest(key_record)]
    finally:
        shutil.rmtree(root, ignore_errors=True)


@given(st.integers(0, 2), st.integers(1, 40),
       st.binary(min_size=0, max_size=16))
def test_corrupted_blob_never_served(seed, cut, garbage):
    """Truncate a blob by an arbitrary amount and append arbitrary
    bytes: the read must raise StoreIntegrityError, never return a
    TaskRun that differs from what was stored."""
    root = Path(tempfile.mkdtemp(prefix="repro-store-prop-"))
    try:
        store = CampaignStore(root)
        key = _key(0, 0, seed)
        store.put(key, _run(0, 0, seed, 3))
        (blob_path,) = (root / "blobs").glob("*.json")
        data = blob_path.read_bytes()
        mutated = data[:-cut] + garbage
        if mutated == data:  # hypothesis reassembled the original
            assert store.get(key) == _run(0, 0, seed, 3)
            return
        blob_path.write_bytes(mutated)
        try:
            store.get(key)
        except StoreIntegrityError:
            pass
        else:
            raise AssertionError("corrupt blob was served")
    finally:
        shutil.rmtree(root, ignore_errors=True)


@given(st.binary(max_size=64), st.integers(1, 3))
def test_torn_manifest_recovered_or_rejected_loudly(garbage, n_entries):
    """Arbitrary bytes in manifest.json: reopening either recovers the
    full index from the entry files (flagging it) or raises the typed
    StoreError (a parseable manifest with a foreign version) — it never
    opens quietly with entries missing."""
    root = Path(tempfile.mkdtemp(prefix="repro-store-prop-"))
    try:
        store = CampaignStore(root)
        for seed in range(n_entries):
            store.put(_key(0, 0, seed), _run(0, 0, seed, 2))
        (root / "manifest.json").write_bytes(garbage)
        try:
            reopened = CampaignStore(root)
        except StoreError:
            manifest = json.loads(garbage)
            # Only a version skew throws.
            assert manifest["version"] != STORE_VERSION
            return
        # The durable truth is always intact regardless of what the
        # manifest said...
        for seed in range(n_entries):
            assert reopened.get(_key(0, 0, seed)) == _run(0, 0, seed, 2)
        # ...and a genuinely unparseable manifest was rebuilt in full.
        if reopened.recovered_manifest:
            assert len(reopened.manifest()) == n_entries
    finally:
        shutil.rmtree(root, ignore_errors=True)
