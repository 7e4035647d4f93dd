"""Workload definitions: which campaign each benchmark workload runs.

A workload maps the benchmark's ``--seed`` to a campaign configuration.
Only the resulting configuration reaches the program.
"""

from __future__ import annotations

import os

# The paper's Table I is one campaign at seed 0.  Its cost moves with
# the campaign seed far beyond any regression bound (a full serial
# campaign measured 43 s at seed 1, 69 s at seed 0 and 87 s at seed 2,
# because runaway candidates cluster in one or two items per seed), so
# the Table-I workloads pin the campaign seed and their workload seed
# selects nothing.
TABLE1_SEED = 0
# Every twelfth task in dataset order: 13 of 156 tasks (7 CMB, 6 SEQ),
# 39 items over three methods.  Short items let a run repeat each one
# many times (see run.py); the two tasks whose CorrectBench items hit
# `max_time` 20 and 32 times at seed 0 (`seq_count4_up`, `seq_ashift8`:
# 44 s of the 78 s traced full campaign) are not in it.  It keeps one
# limit hit, `seq_div8_tick`'s baseline item.
TABLE1_STRIDE = 12
# The CMB workloads run every eighth CMB task (11 of 81) at seeds b,
# b+1, b+2 with b = seed mod CMB_BASES, so every campaign seed they can
# reach has a recorded digest.
# Each listed workload has a pooled twin: the same items at n_jobs =
# nproc with a fresh store.  A twin is traced alongside its workload
# (see run.py) but not timed on its own, because a makespan over both
# vCPUs of a shared host spreads beyond any bound the benchmark may set.
CMB_STRIDE = 8
CMB_BASES = 8
CMB_SPAN = 3
# Tiny slices for the tracer test: CMB-only serial, mixed pooled.
SMOKE_SERIAL = ("cmb_alu8", "cmb_eq4")
SMOKE_POOLED = ("cmb_eq4", "seq_count8_en")

# The workloads BENCHMARK.json lists; `table1_full` (all 468 Table-I items, for
# one-off baselines), the pooled twins and the smoke slices (for the
# test) are extra.
BENCHMARK_WORKLOADS = ("table1_serial", "cmb_seeds")
POOLED_TWIN = {"table1_serial": "table1_pooled", "cmb_seeds": "cmb_pooled"}
WORKLOADS = BENCHMARK_WORKLOADS + ("table1_full", "smoke_serial",
                                   "smoke_pooled",
                                   *POOLED_TWIN.values())
POOLED = ("table1_pooled", "cmb_pooled", "smoke_pooled")


def campaign_plan(workload: str, seed: int, all_task_ids: list[str]
                  ) -> tuple[list[str], tuple[int, ...], int, bool]:
    """(task ids, campaign seeds, n_jobs, uses store) for a workload."""
    pooled = workload in POOLED
    n_jobs = (os.cpu_count() or 1) if pooled else 1
    seeds: tuple[int, ...] = (TABLE1_SEED,)
    if workload in ("cmb_seeds", "cmb_pooled"):
        base = seed % CMB_BASES
        tasks = [t for t in all_task_ids if t.startswith("cmb_")]
        tasks = tasks[::CMB_STRIDE]
        seeds = tuple(range(base, base + CMB_SPAN))
    elif workload == "table1_full":
        tasks = list(all_task_ids)
    elif workload == "smoke_serial":
        tasks = list(SMOKE_SERIAL)
    elif workload == "smoke_pooled":
        tasks = list(SMOKE_POOLED)
    else:  # table1_serial, table1_pooled
        tasks = list(all_task_ids[::TABLE1_STRIDE])
    return tasks, seeds, n_jobs, pooled
