"""Two processes writing one campaign store concurrently.

Entry and blob files land independently per writer (tmp + atomic
rename), so concurrent writers must never produce a torn blob; only
the advisory manifest is racy (last writer wins), and listing through
the entry files sees every writer's entries regardless of whose
manifest flush landed last.
"""

import json
import multiprocessing

from repro.eval import CampaignStore, EvalLevel, TaskRun, store_key
from repro.eval.store import STORE_VERSION, key_digest
from repro.hdl.context import SimContext
from repro.llm.base import Usage

N_PER_WRITER = 25


def _writer_key(writer: str, index: int) -> dict:
    return store_key("baseline", f"{writer}_task_{index}", index,
                     "gpt-4o", "S1", 20, SimContext())


def _writer_run(writer: str, index: int) -> TaskRun:
    return TaskRun(method="baseline", task_id=f"{writer}_task_{index}",
                   kind="CMB", seed=index, level=EvalLevel.EVAL2,
                   usage=Usage(index, len(writer)))


def _hammer(root, writer, barrier):
    store = CampaignStore(root)
    barrier.wait(timeout=60)  # maximise interleaving
    for index in range(N_PER_WRITER):
        store.put(_writer_key(writer, index), _writer_run(writer, index))


def test_two_writers_share_one_store(tmp_path):
    CampaignStore(tmp_path)  # lay out the store before the race
    mp = multiprocessing.get_context("spawn")  # no inherited state
    barrier = mp.Barrier(2)
    writers = ("alpha", "beta")
    procs = [mp.Process(target=_hammer, args=(str(tmp_path), w, barrier))
             for w in writers]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    store = CampaignStore(tmp_path)
    # Both writers' entries landed — nothing overwrote anything.
    assert len(store) == 2 * N_PER_WRITER
    expected = sorted(key_digest(_writer_key(w, i))
                      for w in writers for i in range(N_PER_WRITER))
    assert list(store.export_keys()) == expected
    # No torn blobs: every entry reads back equal to what its writer
    # stored, through full content-hash verification.
    for writer in writers:
        for index in range(N_PER_WRITER):
            assert store.get(_writer_key(writer, index)) \
                == _writer_run(writer, index)
    assert store.stats()["hits"] == 2 * N_PER_WRITER

    # The manifest is last-writer-wins and may miss the other writer's
    # late entries, but it must parse, carry the right version, and
    # only reference entries that exist on disk.
    manifest = json.loads((tmp_path / "manifest.json").read_bytes())
    assert manifest["version"] == STORE_VERSION
    on_disk = set(store.export_keys())
    assert set(manifest["entries"]) <= on_disk
    # Dropping the advisory manifest forces a rebuild from the entry
    # files, reconciling the index with the disk truth.
    (tmp_path / "manifest.json").unlink()
    assert len(CampaignStore(tmp_path).manifest()) == 2 * N_PER_WRITER


def test_interleaved_same_key_last_writer_wins(tmp_path):
    """Both processes hammer the *same* keys: whatever wins, every
    entry must reference a complete, verifiable blob (no torn state),
    and the final value is one of the two written."""
    mp = multiprocessing.get_context("spawn")
    barrier = mp.Barrier(2)

    procs = [mp.Process(target=_contend, args=(str(tmp_path), w, barrier))
             for w in ("alpha", "beta")]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    store = CampaignStore(tmp_path)
    assert len(store) == 10
    for index in range(10):
        key = store_key("baseline", f"contended_{index}", 0, "gpt-4o",
                        "S1", 20, SimContext())
        run = store.get(key)  # verifies content hash + key binding
        assert run is not None
        assert run.usage.input_tokens in (0, 1)  # alpha's or beta's


def _contend(root, writer, barrier):
    store = CampaignStore(root)
    barrier.wait(timeout=60)
    tag = 0 if writer == "alpha" else 1
    for index in range(10):
        key = store_key("baseline", f"contended_{index}", 0, "gpt-4o",
                        "S1", 20, SimContext())
        store.put(key, TaskRun(method="baseline",
                               task_id=f"contended_{index}", kind="CMB",
                               seed=0, level=EvalLevel.EVAL1,
                               usage=Usage(tag, 0)))
