"""Campaign artifact store: keying, round trips, atomic durability,
the version marker, the results-only layout and the integrity battery."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.eval import (CampaignStore, EvalLevel, StoreError,
                        StoreIntegrityError, TaskRun, context_fingerprint,
                        default_config, llm_tier, run_campaign, store_key)
from repro.eval.campaign import METHOD_BASELINE
from repro.eval.store import STORE_VERSION, key_digest
from repro.hdl.context import SimContext
from repro.llm.base import Usage


def make_run(task_id="cmb_and2", method="baseline", seed=0,
             level=EvalLevel.EVAL2, **extra) -> TaskRun:
    return TaskRun(method=method, task_id=task_id, kind="CMB", seed=seed,
                   level=level, usage=Usage(120, 34), **extra)


def make_key(task_id="cmb_and2", method="baseline", seed=0,
             context=None) -> dict:
    context = context if context is not None else SimContext()
    return store_key(method, task_id, seed, "gpt-4o", "S1", 20, context)


class TestKeying:
    def test_llm_tier_defaults_to_synthetic(self):
        assert llm_tier(SimContext()) == "synthetic"
        assert llm_tier(SimContext(llm_backend="fixture")) == "fixture"

    def test_operational_knobs_do_not_change_fingerprint(self):
        base = SimContext()
        for evolved in (base.evolve(jobs=8),
                        base.evolve(start_method="spawn"),
                        base.evolve(warm_start=False),
                        base.evolve(trace_dir="/tmp/t"),
                        base.evolve(store_dir="/tmp/s")):
            assert context_fingerprint(evolved) == context_fingerprint(base)

    def test_result_relevant_fields_change_fingerprint(self):
        base = SimContext()
        for evolved in (base.evolve(max_stmts=7),
                        base.evolve(max_time=7),
                        base.evolve(llm_backend="fixture")):
            assert context_fingerprint(evolved) != context_fingerprint(base)

    def test_key_digest_stable_across_dict_order(self):
        key = make_key()
        shuffled = dict(reversed(list(key.items())))
        assert key_digest(shuffled) == key_digest(key)

    def test_key_coordinates_distinguish_items(self):
        digests = {key_digest(make_key(task_id=t, method=m, seed=s))
                   for t in ("cmb_and2", "cmb_eq4")
                   for m in ("baseline", "autobench")
                   for s in (0, 1)}
        assert len(digests) == 8


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        run = make_run(validated=True, corrections=2)
        key = make_key()
        store.put(key, run)
        assert store.get(key) == run
        assert store.contains(key)
        assert len(store) == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.get(make_key()) is None
        assert not store.contains(make_key())
        assert store.stats()["misses"] == 1

    def test_round_trip_survives_reopen(self, tmp_path):
        run = make_run(level=EvalLevel.EVAL1, gave_up=False)
        CampaignStore(tmp_path).put(make_key(), run)
        reopened = CampaignStore(tmp_path)
        assert reopened.get(make_key()) == run

    def test_put_writes_one_file_and_leaves_the_marker(self, tmp_path):
        store = CampaignStore(tmp_path)
        marker = (tmp_path / "manifest.json").read_bytes()

        def snapshot():
            return {path.relative_to(tmp_path): path.read_bytes()
                    for path in tmp_path.rglob("*") if path.is_file()}

        for level in (EvalLevel.FAILED, EvalLevel.EVAL2):
            before = snapshot()
            store.put(make_key(), make_run(level=level))
            after = snapshot()
            changed = {name for name in before.keys() | after.keys()
                       if before.get(name) != after.get(name)}
            assert changed == {Path("entries")
                               / f"{key_digest(make_key())}.json"}
            assert after[Path("manifest.json")] == marker
        store.put(make_key(seed=1), make_run(seed=1))
        store.evict(make_key())
        assert (tmp_path / "manifest.json").read_bytes() == marker
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["entries", "manifest.json"]

    def test_last_writer_wins_per_key(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run(level=EvalLevel.FAILED))
        store.put(make_key(), make_run(level=EvalLevel.EVAL2))
        assert store.get(make_key()).level == EvalLevel.EVAL2
        assert len(store) == 1

    def test_evict(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        assert store.evict(make_key())
        assert store.get(make_key()) is None
        assert not store.evict(make_key())
        assert store.stats()["evictions"] == 1

    def test_keys_and_export_keys(self, tmp_path):
        store = CampaignStore(tmp_path)
        keys = [make_key(seed=s) for s in range(3)]
        for key in keys:
            store.put(key, make_run(seed=key["seed"]))
        assert sorted(k["seed"] for k in store.keys()) == [0, 1, 2]
        assert store.export_keys() == tuple(sorted(map(key_digest, keys)))

    def test_stats_counters(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        store.get(make_key())
        store.get(make_key(seed=9))
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1,
                                 "evictions": 0, "entries": 1}

    def test_taskrun_payload_round_trip(self):
        run = make_run(validated=True, gave_up=False, corrections=3,
                       reboots=1, final_from_corrector=True,
                       took_any_action=True, fault_class="dead-signal",
                       recovered=True, recovery_round=2, rounds=4)
        assert TaskRun.from_payload(run.to_payload()) == run

    def test_taskrun_payload_is_strict(self):
        payload = make_run().to_payload()
        with pytest.raises(ValueError, match="bad TaskRun payload"):
            TaskRun.from_payload({**payload, "surprise": 1})
        missing = dict(payload)
        del missing["level"]
        with pytest.raises(ValueError, match="bad TaskRun payload"):
            TaskRun.from_payload(missing)
        with pytest.raises(ValueError, match="bad TaskRun payload"):
            TaskRun.from_payload({**payload, "level": 99})


class TestIntegrity:
    def _stored(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        return store, make_key()

    def _entry_path(self, tmp_path, key=None):
        key = key if key is not None else make_key()
        return tmp_path / "entries" / f"{key_digest(key)}.json"

    def test_tampered_entry_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = self._entry_path(tmp_path)
        stored = b'"level":%d' % int(EvalLevel.EVAL2)
        data = path.read_bytes()
        assert stored in data
        path.write_bytes(data.replace(
            stored, b'"level":%d' % int(EvalLevel.FAILED)))
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_truncated_entry_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = self._entry_path(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    @pytest.mark.parametrize("tail", [b" ", b"}", b"\n"])
    def test_appended_entry_raises(self, tmp_path, tail):
        # Trailing bytes JSON would ignore or reject still fail the hash.
        store, key = self._stored(tmp_path)
        path = self._entry_path(tmp_path)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_entry_under_wrong_key_raises(self, tmp_path):
        # An entry recorded under a *different* key must not be served:
        # copy key A's entry over key B's (its hash still verifies).
        store = CampaignStore(tmp_path)
        key_a, key_b = make_key(seed=0), make_key(seed=1)
        store.put(key_a, make_run(seed=0))
        store.put(key_b, make_run(seed=1))
        self._entry_path(tmp_path, key_b).write_bytes(
            self._entry_path(tmp_path, key_a).read_bytes())
        with pytest.raises(StoreIntegrityError, match="different key"):
            store.get(key_b)

    def test_corrupt_entry_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        self._entry_path(tmp_path).write_text("{not json")
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_undecodable_payload_raises(self, tmp_path):
        # A record whose hash verifies but whose payload is not one.
        store, key = self._stored(tmp_path)
        write_entry(self._entry_path(tmp_path), b"[1,2]")
        with pytest.raises(StoreIntegrityError, match="corrupt"):
            store.get(key)

    def test_entry_version_mismatch_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = self._entry_path(tmp_path)
        payload = entry_payload(path)
        payload["version"] = STORE_VERSION + 1
        write_entry(path, json.dumps(payload).encode())
        with pytest.raises(StoreError, match="version"):
            store.get(key)


def entry_payload(path: Path) -> dict:
    """The payload of a well-formed entry file."""
    return json.loads(path.read_bytes())["payload"]


def write_entry(path: Path, body: bytes) -> None:
    """Write ``body`` as an entry whose content hash verifies."""
    path.write_bytes(b'{"sha256":"%s","payload":%s}'
                     % (hashlib.sha256(body).hexdigest().encode(), body))


def write_v2_store(root: Path) -> None:
    """Lay out a version-2 store: a content-addressed blob, an entry
    file pointing at it, and the manifest indexing that entry."""
    key = make_key()
    blob = json.dumps({"version": 2, "key": key,
                       "run": make_run().to_payload()},
                      sort_keys=True, separators=(",", ":")).encode()
    sha = hashlib.sha256(blob).hexdigest()
    (root / "blobs").mkdir(parents=True)
    (root / "entries").mkdir()
    (root / "blobs" / f"{sha}.json").write_bytes(blob)
    entry = {"version": 2, "key": key, "blob": sha}
    (root / "entries" / f"{key_digest(key)}.json").write_text(
        json.dumps(entry, sort_keys=True, separators=(",", ":")))
    manifest = {"version": 2, "count": 1,
                "entries": {key_digest(key): {"key": key, "blob": sha}}}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1))


class TestManifest:
    """``manifest.json`` is a version marker: written once, when the
    store is created, and checked each time it is opened."""

    MARKER = b'{"version":3}'

    def test_manifest_written_and_versioned(self, tmp_path):
        CampaignStore(tmp_path)
        assert (tmp_path / "manifest.json").read_bytes() == self.MARKER

    def test_version_mismatch_fails_loudly(self, tmp_path):
        CampaignStore(tmp_path).put(make_key(), make_run())
        # A version-1 store (its keys still fingerprint the retired
        # engine / lexer / mutant_engine fields), a bare version-2
        # marker, and a newer build's store.
        for version in (1, 2, STORE_VERSION + 1):
            (tmp_path / "manifest.json").write_text(
                json.dumps({"version": version}))
            with pytest.raises(StoreError, match=f"version {version}"):
                CampaignStore(tmp_path)

    def test_version_2_layout_fails_loudly(self, tmp_path):
        write_v2_store(tmp_path)
        before = sorted(path.name for path in tmp_path.iterdir())
        with pytest.raises(StoreError, match="version 2"):
            CampaignStore(tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == before
        # Without its manifest, its entries still refuse to open.
        (tmp_path / "manifest.json").unlink()
        with pytest.raises(StoreError, match="another store version"):
            CampaignStore(tmp_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_torn_manifest_recovers_from_entries(self, tmp_path, capsys):
        # The entry files are the durable truth: garbage in the marker
        # (a torn write) costs nothing but a loud warning.
        store = CampaignStore(tmp_path)
        for seed in range(3):
            store.put(make_key(seed=seed), make_run(seed=seed))
        (tmp_path / "manifest.json").write_bytes(b'{"version": 1, "en')
        recovered = CampaignStore(tmp_path)
        assert "unreadable" in capsys.readouterr().err
        assert len(recovered) == 3
        for seed in range(3):
            assert recovered.get(make_key(seed=seed)).seed == seed
        # Recovery rewrote a readable marker.
        assert (tmp_path / "manifest.json").read_bytes() == self.MARKER
        CampaignStore(tmp_path)
        assert capsys.readouterr().err == ""

    def test_unreadable_manifest_checks_entry_versions(self, tmp_path,
                                                       capsys):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        path = tmp_path / "entries" / f"{key_digest(make_key())}.json"
        payload = entry_payload(path)
        payload["version"] = STORE_VERSION + 1
        write_entry(path, json.dumps(payload).encode())
        (tmp_path / "manifest.json").write_bytes(b"\x00torn")
        with pytest.raises(StoreError, match="version"):
            CampaignStore(tmp_path)
        assert "unreadable" in capsys.readouterr().err
        assert (tmp_path / "manifest.json").read_bytes() == b"\x00torn"

    def test_missing_manifest_rebuilds_silently(self, tmp_path, capsys):
        CampaignStore(tmp_path).put(make_key(), make_run())
        (tmp_path / "manifest.json").unlink()
        reopened = CampaignStore(tmp_path)
        assert capsys.readouterr().err == ""
        assert (tmp_path / "manifest.json").read_bytes() == self.MARKER
        assert reopened.get(make_key()) == make_run()

    def test_missing_manifest_checks_entry_versions(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        path = tmp_path / "entries" / f"{key_digest(make_key())}.json"
        payload = entry_payload(path)
        payload["version"] = 2
        write_entry(path, json.dumps(payload).encode())
        (tmp_path / "manifest.json").unlink()
        with pytest.raises(StoreError, match="version 2"):
            CampaignStore(tmp_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_manifest_is_advisory_not_truth(self, tmp_path):
        # The marker indexes nothing: keys()/get() read entry files, so
        # entries another handle landed are visible at once.
        ours = CampaignStore(tmp_path)
        ours.put(make_key(seed=0), make_run(seed=0))
        theirs = CampaignStore(tmp_path)
        theirs.put(make_key(seed=1), make_run(seed=1))
        assert len(ours) == 2
        assert ours.get(make_key(seed=1)).seed == 1
        assert (tmp_path / "manifest.json").read_bytes() == self.MARKER


class TestResultsOnly:
    """The store holds results, never cache state: campaigns write only
    the results layout, and the cache-snapshot file older builds left
    in the root is ignored."""

    TASKS = ("cmb_and2", "cmb_eq4")
    #: Where older builds co-located their pickled cache snapshot.
    LEGACY_SNAPSHOT = Path("snapshot").with_suffix(".bin")

    def _config(self):
        return default_config(task_ids=self.TASKS, seeds=(0,), n_jobs=1,
                              methods=(METHOD_BASELINE,))

    def test_stored_campaign_writes_no_snapshot(self, tmp_path):
        run_campaign(self._config(), store=CampaignStore(tmp_path))
        assert not (tmp_path / self.LEGACY_SNAPSHOT).exists()
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["entries", "manifest.json"]

    def test_garbage_snapshot_file_is_ignored_on_resume(self, tmp_path):
        cold = run_campaign(self._config())
        partial = default_config(task_ids=self.TASKS[:1], seeds=(0,),
                                 n_jobs=1, methods=(METHOD_BASELINE,))
        run_campaign(partial, store=CampaignStore(tmp_path))
        (tmp_path / self.LEGACY_SNAPSHOT).write_bytes(b"garbage\x00")
        resumed = run_campaign(self._config(),
                               store=CampaignStore(tmp_path), resume=True)
        assert (resumed.store_hits, resumed.store_misses) == (1, 1)
        assert [run.to_payload() for run in resumed.runs] \
            == [run.to_payload() for run in cold.runs]
