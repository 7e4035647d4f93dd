"""Checks for the campaign benchmark's tracer on tiny campaign slices."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracer import LAYER_NAMES, Tracer  # noqa: E402

# Layers each smoke slice must exercise (its mechanism workload).
SERIAL_LAYERS = ("lex", "parse", "elaborate", "compile", "union", "kernel",
                 "demux", "checker", "llm", "tokens", "golden", "validator",
                 "corrector", "generator", "autoeval")
POOLED_LAYERS = ("store.put", "prewarm", "pool_start")


def run_unit(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), workload, "0",
         repr(time.monotonic()), "--trace"],
        env=env, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
        timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_rebinds_every_alias_and_restores():
    import repro.core.validator as validator_mod
    from repro.hdl import parser as parser_mod
    from repro.hdl.parser import parse_source_cached

    original = validator_mod.run_checker
    original_method = vars(parser_mod.Parser)["parse_source"]
    tracer = Tracer().install()
    try:
        assert tracer.unwrapped_aliases() == []
        assert validator_mod.run_checker is not original
        # The cached front end bypasses the module-level parse_source:
        # only the Parser method sees it.
        parse_source_cached(f"module m_{time.monotonic_ns()}; endmodule")
        metrics = tracer.metrics()
        assert metrics["parse.calls"] == 1
        assert metrics["lex.calls"] == 1
    finally:
        tracer.uninstall()
    assert validator_mod.run_checker is original
    assert vars(parser_mod.Parser)["parse_source"] is original_method


@pytest.mark.parametrize("workload, layers", [
    ("smoke_serial", SERIAL_LAYERS),
    ("smoke_pooled", POOLED_LAYERS),
])
def test_split_sums_to_wall_and_covers_layers(workload, layers):
    result = run_unit(workload)
    trace = result["trace"]
    self_total = sum(trace[f"{layer}.self_s"] for layer in LAYER_NAMES)
    assert math.isclose(self_total, result["trace_wall_s"], abs_tol=1e-6)
    for layer in layers:
        assert trace[f"{layer}.calls"] > 0, layer
    if workload == "smoke_serial":  # CMB tasks have no clock to run away
        assert trace["kernel.limit_hits"] == 0
    recorded = json.loads((HERE / "digests.json").read_text())
    assert result["digests"]
    for key, digest in result["digests"].items():
        assert recorded[key] == digest, key
