"""The Fig. 6a study: validation accuracy of the three criteria.

Protocol, following Section IV-C of the paper:

1. Collect a corpus of AutoBench-generated testbenches (the paper used
   1560 = 156 tasks x 10 from earlier runs) and label each one
   "correct"/"wrong" by its AutoEval Eval2 outcome.
2. Build one fixed judge group of 20 correctness-unknown RTLs per task.
3. Run each criterion's validator on every testbench with that group.
4. A validator "succeeds" on a testbench when its verdict matches the
   label; accuracy is reported for all / correct / wrong testbenches.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from ..core.generator import AutoBenchGenerator
from ..core.simulation import pool_imap
# Criterion is re-exported as part of this module's API.
from ..core.validator import (CRITERIA, Criterion,  # noqa: F401
                              ScenarioValidator)
from ..llm.base import MeteredClient, UsageMeter
from ..llm.profiles import get_profile
from ..llm.synthetic import SyntheticLLM
from ..problems.dataset import get_task
from .autoeval import EvalLevel, evaluate
from .golden import golden_artifacts


@dataclass
class LabelledValidation:
    task_id: str
    sample: int
    label_correct: bool
    verdicts: dict  # criterion name -> bool


@dataclass
class StudyResult:
    records: list[LabelledValidation]

    def accuracy(self, criterion_name: str) -> dict:
        total = [r for r in self.records]
        correct = [r for r in self.records if r.label_correct]
        wrong = [r for r in self.records if not r.label_correct]

        def acc(rows):
            if not rows:
                return 0.0
            hits = sum(1 for r in rows
                       if r.verdicts[criterion_name] == r.label_correct)
            return hits / len(rows)

        return {"total": acc(total), "correct": acc(correct),
                "wrong": acc(wrong)}

    def accuracies(self) -> dict:
        return {name: self.accuracy(name) for name in CRITERIA}

    @property
    def n_correct(self) -> int:
        return sum(1 for r in self.records if r.label_correct)


def study_one_task(task_id: str, samples_per_task: int = 10,
                   profile_name: str = "gpt-4o", group_size: int = 20,
                   criteria: dict[str, Criterion] | None = None,
                   ) -> list[LabelledValidation]:
    """Generate, label and validate the TB corpus slice of one task."""
    task = get_task(task_id)
    profile = get_profile(profile_name)
    golden = golden_artifacts(task_id)
    records = []
    criteria = dict(criteria) if criteria is not None else dict(CRITERIA)

    # One fixed correctness-unknown judge group per task, as in the paper.
    group_client = MeteredClient(SyntheticLLM(profile, seed=990),
                                 UsageMeter())
    validators = {}
    shared_group = None
    for name, criterion in criteria.items():
        validator = ScenarioValidator(group_client, task, criterion,
                                      group_size)
        if shared_group is None:
            shared_group = validator.rtl_group
        else:
            validator.use_group(shared_group)
        validators[name] = validator

    for sample in range(samples_per_task):
        client = MeteredClient(SyntheticLLM(profile, seed=1000 + sample),
                               UsageMeter())
        testbench = AutoBenchGenerator(client, task).generate(attempt=0)
        label = evaluate(testbench, golden).level >= EvalLevel.EVAL2
        verdicts = {name: validator.validate(testbench).verdict
                    for name, validator in validators.items()}
        records.append(LabelledValidation(task_id, sample, label,
                                          verdicts))
    return records


def _worker(item: tuple) -> list[LabelledValidation]:
    task_id, samples, profile_name, group_size, criteria = item
    return study_one_task(task_id, samples, profile_name, group_size,
                          criteria)


def run_study(task_ids, samples_per_task: int = 10,
              profile_name: str = "gpt-4o", group_size: int = 20,
              n_jobs: int = 1,
              criteria: dict[str, Criterion] | None = None) -> StudyResult:
    items = [(task_id, samples_per_task, profile_name, group_size,
              criteria)
             for task_id in task_ids]
    chunks = [chunk for _, chunk in sorted(
        pool_imap(_worker, items, n_jobs), key=itemgetter(0))]
    return StudyResult([record for chunk in chunks for record in chunk])
