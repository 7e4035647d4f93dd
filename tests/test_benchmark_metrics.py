"""The cache metrics ``BENCHMARK.json`` declares are ones the program
still reports.

The campaign benchmark derives ``<layer>.hit_ratio`` / ``<layer>.size``
from ``caches.stats()`` and ``compile.share_ratio`` from
``program_cache_stats()``.  A change that drops or renames a reported
cache layer would make the benchmark emit a result without those
metrics; this test fails first.
"""

import json
from pathlib import Path

import repro.eval.campaign  # noqa: F401  (registers every cache layer)
from repro.core.caches import caches
from repro.hdl.compile import program_cache_stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CACHE_SUFFIXES = (".hit_ratio", ".size")


def _per_layer_names() -> list[str]:
    spec = json.loads(BENCHMARK.read_text())
    return [metric["name"] for metric in spec["per_layer"]]


def test_cache_metrics_name_registered_layers():
    names = [name for name in _per_layer_names()
             if name.endswith(CACHE_SUFFIXES)]
    assert names, "BENCHMARK.json declares no cache metrics"
    layers = caches.stats()
    missing = sorted({name.rsplit(".", 1)[0] for name in names}
                     - set(layers))
    assert not missing, (f"BENCHMARK.json reports cache layers "
                         f"{missing} that caches.stats() lacks")


def test_compile_share_ratio_has_its_counters():
    assert "compile.share_ratio" in _per_layer_names()
    stats = program_cache_stats()
    assert {"programs_shared", "programs_compiled"} <= set(stats)
