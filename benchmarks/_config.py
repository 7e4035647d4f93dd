"""Shared benchmark configuration.

Every bench regenerates one of the paper's tables or figures.  By default
they run on a balanced dataset slice with one seed so ``pytest
benchmarks/ --benchmark-only`` finishes in minutes; set ``REPRO_FULL=1``
for the paper-scale protocol (156 tasks, 5 seeds) and ``REPRO_JOBS=N``
(0 = all cores) to parallelise.

Bench output (the rendered table/figure) is printed and also written to
``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can reference it.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.hdl.context import resolve_jobs
from repro.problems import dataset_slice, load_dataset

OUT_DIR = Path(__file__).parent / "out"

FULL = os.environ.get("REPRO_FULL", "") == "1"
JOBS = resolve_jobs(default=(os.cpu_count() or 2) // 2 or 1)

# Paper protocol: 156 tasks x 5 repetitions.
FULL_SEEDS = (0, 1, 2, 3, 4)
SLICE_SEEDS = (0,)


def bench_tasks() -> list[str]:
    if FULL:
        return [task.task_id for task in load_dataset()]
    return [task.task_id for task in dataset_slice(18, 16, stride=4)]


def bench_seeds() -> tuple[int, ...]:
    return FULL_SEEDS if FULL else SLICE_SEEDS


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
