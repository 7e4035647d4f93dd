"""Tier-1 slice of the behaviour ledger.

``campaign_bench/digests.json`` pins the digest of every seed-0
Table-I item's ``TaskRun.to_payload()``.  This test runs a fixed slice
of it in-process, 20 tasks x 3 methods, and diffs each digest against
the recorded one, so a change that moves any report in the slice fails
here, not only in the end-to-end benchmark.  The digest function is
the benchmark's own (``campaign_bench/unit.py``); the digests file is
only read.
"""

import importlib.util
import json
from pathlib import Path

from repro.eval.campaign import default_config, run_campaign
from repro.problems.dataset import load_dataset

BENCH_DIR = Path(__file__).resolve().parents[2] / "campaign_bench"
DIGESTS = BENCH_DIR / "digests.json"

#: Every 8th Table-I task from the second: 20 tasks, 10 of them
#: sequential.  It leaves out both tasks whose items tick a dead clock
#: to ``max_time`` dozens of times, so the slice runs in a few seconds.
SLICE = slice(1, None, 8)


def _bench_unit():
    spec = importlib.util.spec_from_file_location(
        "campaign_bench_unit", BENCH_DIR / "unit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed0_slice_matches_the_recorded_digests():
    unit = _bench_unit()
    task_ids = [task.task_id for task in load_dataset()][SLICE]
    assert len(task_ids) == 20
    result = run_campaign(default_config(task_ids, seeds=(0,), n_jobs=1))
    digests = {unit.item_key(run): unit.payload_digest(run.to_payload())
               for run in result.runs}
    assert len(digests) == 3 * len(task_ids)
    recorded = json.loads(DIGESTS.read_text())
    changed = sorted(key for key, digest in digests.items()
                     if recorded[key] != digest)
    assert changed == []
