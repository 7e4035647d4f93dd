#!/usr/bin/env python3
"""Head-to-head: baseline vs AutoBench vs CorrectBench on a task slice.

Runs the three testbench-generation methods of the paper on a balanced
slice of the benchmark and prints a miniature Table I — plus a fourth,
*out-of-tree* method registered through the campaign-method registry,
to show that new strategies plug in without touching the runner.

Run:  python examples/compare_methods.py          (12 tasks, 1 seed)
      python examples/compare_methods.py --full   (all 156 tasks)
"""

import multiprocessing
import sys

from repro.core.baseline import DirectBaseline
from repro.eval import (ALL_METHODS, campaign_method, default_config,
                        render_table1, run_campaign)
from repro.eval.campaign import campaign_jobs_from_env
from repro.problems import dataset_slice, load_dataset


# An extra strategy the campaign runner has never heard of: the direct
# baseline, but sampling the LLM's second attempt.  Registering it makes
# it a first-class method name for campaigns and the CLI alike.
@campaign_method("baseline-retry")
def baseline_retry(call):
    testbench = DirectBaseline(call.client, call.task).generate(attempt=1)
    return call.result(call.grade(testbench))


def main() -> None:
    full = "--full" in sys.argv
    if full:
        task_ids = [task.task_id for task in load_dataset()]
    else:
        task_ids = [task.task_id for task in dataset_slice(6, 6,
                                                           stride=7)]
    methods = ALL_METHODS + ("baseline-retry",)
    jobs = campaign_jobs_from_env(default=4)
    if multiprocessing.get_start_method() != "fork":
        # The registry is per process and "baseline-retry" lives in this
        # __main__ script: spawned/forkserver workers re-import repro but
        # not this file, so they would not know the method.  Forked
        # workers inherit the registration; elsewhere, run serial.
        jobs = 1
    config = default_config(
        task_ids=task_ids, seeds=(0,), methods=methods, n_jobs=jobs)
    print(f"running {len(methods)} methods x {len(task_ids)} tasks "
          f"(jobs={config.n_jobs}) ...")

    done = {"n": 0}

    def progress(index, total, run):
        done["n"] = index
        if index % 10 == 0 or index == total:
            print(f"  {index}/{total} ({run.method} {run.task_id}: "
                  f"{run.level.label})")

    result = run_campaign(config, progress=progress)
    print()
    print(render_table1(result))
    retry = result.of_method("baseline-retry")
    eval2 = sum(1 for run in retry if run.level.label == "Eval2")
    print(f"baseline-retry (registered out-of-tree): "
          f"{eval2}/{len(retry)} Eval2")


if __name__ == "__main__":
    main()
