"""Repeat benchmark runs and record their spread.

Run from the repository root::

    python3 campaign_bench/baseline.py --runs 10 --seconds 60 \\
        --out campaign_bench/baseline.json

For each workload it makes ``--runs`` end-to-end runs with seeds
``--first-seed``, ``--first-seed + 1``, ... (one run of every workload
per seed, in turn) and records every raw value,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median.  ``--traced`` names workloads that also
get one traced run (seed 0) for the per-layer split.  Results merge
into ``--out`` by workload, so separate invocations accumulate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import BENCHMARK_WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(BENCHMARK_WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--traced", default="",
                        help="comma-separated workloads for a traced run")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    record = (json.loads(args.out.read_text())
              if args.out and args.out.exists() else {})
    workloads = list(filter(None, args.workloads.split(","))
                     if args.runs >= 2 else [])
    # Seed-major order: a slow stretch of the host lands on a run of
    # every workload instead of on consecutive runs of one.
    all_runs = {workload: [] for workload in workloads}
    for i in range(args.runs):
        for workload in workloads:
            all_runs[workload].append(
                bench(workload, args.first_seed + i, args.seconds, 0))
    for workload, runs in all_runs.items():
        if not all(run["correct"] for run in runs):
            raise SystemExit(f"{workload}: output check failed")
        metrics = {name: summarize([run["metrics"][name]["value"]
                                    for run in runs])
                   for name in runs[0]["metrics"]}
        record.setdefault(workload, {})["end_to_end"] = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "seconds": args.seconds, "metrics": metrics}
        for name, summary in metrics.items():
            print(f"{workload:14s} {name:12s} median {summary['median']:10.4g}"
                  f"  spread {summary['spread']:.3f}")
    for workload in filter(None, args.traced.split(",")):
        run = bench(workload, 0, args.seconds, 1)
        record.setdefault(workload, {})["traced_seed0"] = {
            name: metric["value"] for name, metric in run["metrics"].items()}
        print(f"{workload}: traced, overhead "
              f"{run['metrics']['trace.overhead_s']['value']:.3f} s")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
