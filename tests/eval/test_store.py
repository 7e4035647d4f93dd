"""Campaign artifact store: keying, round trips, atomic durability,
manifest recovery, the results-only layout and the integrity battery."""

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
                        base.evolve(template_cache_size=7),
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
        assert not reopened.recovered_manifest

    def test_identical_payload_is_deduplicated(self, tmp_path):
        store = CampaignStore(tmp_path)
        sha_a = store.put(make_key(), make_run())
        sha_b = store.put(make_key(), make_run())
        assert sha_a == sha_b
        assert len(list((tmp_path / "blobs").glob("*.json"))) == 1

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

    def _blob_path(self, tmp_path):
        (blob,) = (tmp_path / "blobs").glob("*.json")
        return blob

    def test_tampered_blob_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        blob = self._blob_path(tmp_path)
        data = json.loads(blob.read_bytes())
        data["run"]["level"] = int(EvalLevel.FAILED)
        blob.write_text(json.dumps(data))
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_truncated_blob_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        blob = self._blob_path(tmp_path)
        blob.write_bytes(blob.read_bytes()[:-20])
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_missing_blob_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        self._blob_path(tmp_path).unlink()
        with pytest.raises(StoreIntegrityError, match="missing"):
            store.get(key)

    def test_blob_under_wrong_key_raises(self, tmp_path):
        # An entry whose blob was recorded under a *different* key must
        # not be served: rewrite the entry for key B to point at key A's
        # blob (the blob's own hash still verifies).
        store = CampaignStore(tmp_path)
        key_a, key_b = make_key(seed=0), make_key(seed=1)
        sha_a = store.put(key_a, make_run(seed=0))
        store.put(key_b, make_run(seed=1))
        entry_path = tmp_path / "entries" / f"{key_digest(key_b)}.json"
        entry = json.loads(entry_path.read_bytes())
        entry["blob"] = sha_a
        entry_path.write_text(json.dumps(entry))
        with pytest.raises(StoreIntegrityError, match="different.*key"):
            store.get(key_b)

    def test_corrupt_entry_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = tmp_path / "entries" / f"{key_digest(key)}.json"
        path.write_text("{not json")
        with pytest.raises(StoreIntegrityError, match="corrupt"):
            store.get(key)

    def test_entry_version_mismatch_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = tmp_path / "entries" / f"{key_digest(key)}.json"
        entry = json.loads(path.read_bytes())
        entry["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="version"):
            store.get(key)


class TestManifest:
    def test_manifest_written_and_versioned(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        manifest = json.loads((tmp_path / "manifest.json").read_bytes())
        assert manifest["version"] == STORE_VERSION
        assert manifest["count"] == 1
        assert key_digest(make_key()) in manifest["entries"]

    def test_version_mismatch_fails_loudly(self, tmp_path):
        CampaignStore(tmp_path).put(make_key(), make_run())
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_bytes())
        # A newer build's store, and a version-1 store (its keys still
        # fingerprint the retired engine / lexer / mutant_engine fields).
        for version in (STORE_VERSION + 1, 1):
            manifest["version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(StoreError, match="version"):
                CampaignStore(tmp_path)

    def test_torn_manifest_recovers_from_entries(self, tmp_path, capsys):
        # The entry files are the durable truth: garbage in the
        # manifest (a torn write) costs nothing but a loud warning.
        store = CampaignStore(tmp_path)
        for seed in range(3):
            store.put(make_key(seed=seed), make_run(seed=seed))
        (tmp_path / "manifest.json").write_bytes(b'{"version": 1, "en')
        recovered = CampaignStore(tmp_path)
        assert recovered.recovered_manifest
        assert "rebuilding from entry files" in capsys.readouterr().err
        assert len(recovered.manifest()) == 3
        for seed in range(3):
            assert recovered.get(make_key(seed=seed)).seed == seed
        # Recovery rewrote a readable manifest.
        assert not CampaignStore(tmp_path).recovered_manifest

    def test_missing_manifest_rebuilds_silently(self, tmp_path, capsys):
        CampaignStore(tmp_path).put(make_key(), make_run())
        (tmp_path / "manifest.json").unlink()
        reopened = CampaignStore(tmp_path)
        assert not reopened.recovered_manifest  # absent != torn
        assert capsys.readouterr().err == ""
        assert len(reopened.manifest()) == 1

    def test_manifest_is_advisory_not_truth(self, tmp_path):
        # keys()/get() read entry files directly, so entries another
        # writer landed after our manifest flush are still visible.
        ours = CampaignStore(tmp_path)
        ours.put(make_key(seed=0), make_run(seed=0))
        theirs = CampaignStore(tmp_path)
        theirs.put(make_key(seed=1), make_run(seed=1))
        assert len(ours.manifest()) == 1  # stale in-memory index...
        assert len(ours) == 2             # ...but the disk truth is 2
        assert ours.get(make_key(seed=1)).seed == 1


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
            == ["blobs", "entries", "manifest.json"]

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
