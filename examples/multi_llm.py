#!/usr/bin/env python3
"""CorrectBench across model profiles (the paper's Fig. 7 view).

Runs the full workflow on a small task slice under each of the three
model profiles and prints the Eval2/Eval1/Eval0/Failed bands per model.

Run:  python examples/multi_llm.py
"""

from repro.eval import default_config, render_fig7, run_campaign
from repro.hdl.context import resolve_jobs
from repro.problems import dataset_slice

MODELS = ("GPT-4o", "Claude-3.5-Sonnet", "GPT-4o-mini")


def main() -> None:
    task_ids = [task.task_id for task in dataset_slice(5, 5, stride=9)]
    jobs = resolve_jobs(default=4)
    results = {}
    for model in MODELS:
        print(f"running {model} on {len(task_ids)} tasks ...")
        config = default_config(task_ids=task_ids, seeds=(0,),
                                profile_name=model, n_jobs=jobs)
        results[model] = run_campaign(config)
    print()
    print(render_fig7(results))


if __name__ == "__main__":
    main()
