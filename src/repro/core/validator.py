"""The scenario-based testbench self-validator (paper Section III-B).

Simulates the candidate testbench against the imperfect-RTL judge group,
builds the RS matrix, and applies a validation criterion:

- ``100%-wrong`` — a fully red column marks the scenario (and hence the
  testbench) wrong;
- ``70%-wrong`` (the paper's choice) — a column at least 70% red marks
  the scenario wrong, *unless* more than 25% of rows are fully green, in
  which case the testbench is declared correct outright;
- ``50%-wrong`` — like 70%-wrong with a 50% column threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.base import LLMClient, MeteredClient
from ..problems.model import TaskSpec
from .artifacts import HybridTestbench
from .checker_runtime import run_checker
from .rs_matrix import RSMatrix, RSRow, build_matrix
from .rtl_group import DEFAULT_GROUP_SIZE, JudgeRtl, build_rtl_group
from .simulation import run_mutant_sweep


@dataclass(frozen=True)
class Criterion:
    """A validation decision rule over the RS matrix."""

    name: str
    column_threshold: float
    green_row_override: float | None  # None disables the row rule

    def __post_init__(self) -> None:
        if not 0.0 < self.column_threshold <= 1.0:
            raise ValueError("column threshold must be in (0, 1]")


CRITERION_100 = Criterion("100%-wrong", 1.00, None)
CRITERION_70 = Criterion("70%-wrong", 0.70, 0.25)
CRITERION_50 = Criterion("50%-wrong", 0.50, 0.25)

CRITERIA = {c.name: c for c in (CRITERION_100, CRITERION_70, CRITERION_50)}
DEFAULT_CRITERION = CRITERION_70


@dataclass
class ValidationReport:
    """The validator's verdict plus the bug information for the corrector."""

    verdict: bool
    wrong: tuple[int, ...] = ()
    correct: tuple[int, ...] = ()
    uncertain: tuple[int, ...] = ()
    matrix: RSMatrix | None = None
    note: str = ""

    @property
    def bug_info(self) -> dict:
        return {"wrong": self.wrong, "correct": self.correct,
                "uncertain": self.uncertain}


def decide(matrix: RSMatrix, criterion: Criterion) -> ValidationReport:
    """Apply a criterion to an RS matrix."""
    if matrix.n_valid == 0:
        return ValidationReport(False, matrix=matrix,
                                uncertain=matrix.scenario_indexes,
                                note="no valid judge rows")

    wrong, correct, uncertain = [], [], []
    for scenario in matrix.scenario_indexes:
        fraction = matrix.column_wrong_fraction(scenario)
        if fraction is None:
            uncertain.append(scenario)
        elif fraction >= criterion.column_threshold:
            wrong.append(scenario)
        elif fraction >= criterion.column_threshold / 2:
            uncertain.append(scenario)
        else:
            correct.append(scenario)

    if (criterion.green_row_override is not None
            and matrix.fully_green_row_fraction()
            > criterion.green_row_override):
        return ValidationReport(
            True, correct=matrix.scenario_indexes, matrix=matrix,
            note=("green-row override: "
                  f"{matrix.fully_green_row_fraction():.0%} rows fully "
                  "green"))

    return ValidationReport(
        verdict=not wrong, wrong=tuple(wrong), correct=tuple(correct),
        uncertain=tuple(uncertain), matrix=matrix)


class ScenarioValidator:
    """Validates hybrid testbenches against one task's judge group.

    The judge group is generated once and reused across correction and
    reboot iterations (the paper's Fig. 6a experiments use one fixed
    group per task).  Driver-vs-RTL simulations are cached: corrections
    only replace the Python checker, so the expensive Verilog runs are
    shared across iterations.
    """

    def __init__(self, client: LLMClient | MeteredClient, task: TaskSpec,
                 criterion: Criterion = DEFAULT_CRITERION,
                 group_size: int = DEFAULT_GROUP_SIZE,
                 sim_jobs: int | None = None):
        self.client = client
        self.task = task
        self.criterion = criterion
        self.group_size = group_size
        self.sim_jobs = sim_jobs
        self._group: tuple[JudgeRtl, ...] | None = None
        self._sim_cache: dict = {}
        self._retire_cache: dict = {}

    # ------------------------------------------------------------------
    @property
    def rtl_group(self) -> tuple[JudgeRtl, ...]:
        if self._group is None:
            self._group = build_rtl_group(self.client, self.task,
                                          self.group_size)
        return self._group

    def use_group(self, group: tuple[JudgeRtl, ...]) -> None:
        """Inject a pre-built judge group (used by the Fig. 6a study)."""
        self._group = tuple(group)

    # ------------------------------------------------------------------
    def _judge_key(self, driver_src: str, judge: JudgeRtl):
        # The caches are per-instance dicts, so the texts themselves
        # make an exact key; ``str`` caches its own hash.
        return (driver_src, judge.sample_index, judge.source)

    def _sweep_judges(self, driver_src: str, judges) -> None:
        """Sweep the driver across ``judges`` and cache runs + retire
        rounds (first divergence from the golden-RTL lane)."""
        sweep = run_mutant_sweep(driver_src,
                                 [judge.source for judge in judges],
                                 golden_src=self.task.golden_rtl(),
                                 jobs=self.sim_jobs)
        for judge, run, retire in zip(judges, sweep.runs,
                                      sweep.retire_rounds):
            key = self._judge_key(driver_src, judge)
            self._sim_cache[key] = run
            self._retire_cache[key] = retire

    def _judge_records(self, driver_src: str, judge: JudgeRtl):
        key = self._judge_key(driver_src, judge)
        if key not in self._sim_cache:
            self._sweep_judges(driver_src, [judge])
        return self._sim_cache[key]

    def _prefetch_judges(self, driver_src: str) -> None:
        """Batch all uncached driver-vs-judge simulations.

        Routed through :func:`run_mutant_sweep`: under the default
        lockstep strategy the whole judge group simulates as one union
        design; the per-mutant fallback compiles the shared driver once
        per unique judge RTL and can fan out across a process pool
        (``sim_jobs``).
        """
        pending = [judge for judge in self.rtl_group
                   if judge.syntax_ok
                   and self._judge_key(driver_src, judge)
                   not in self._sim_cache]
        if pending:
            self._sweep_judges(driver_src, pending)

    def validate(self, tb: HybridTestbench) -> ValidationReport:
        scenario_indexes = tuple(index for index, _ in tb.scenarios)
        rows: list[RSRow] = []
        self._prefetch_judges(tb.driver_src)
        for judge in self.rtl_group:
            if not judge.syntax_ok:
                rows.append(RSRow(judge.sample_index, None,
                                  "syntax error"))
                continue
            run = self._judge_records(tb.driver_src, judge)
            retire = self._retire_cache.get(
                self._judge_key(tb.driver_src, judge))
            if not run.ok:
                rows.append(RSRow(judge.sample_index, None,
                                  f"{run.status}: {run.detail[:50]}"))
                continue
            if not scenario_indexes:
                scenario_indexes = tuple(sorted(
                    {record.scenario for record in run.records}))
            report = run_checker(tb.checker_src, self.task.ports,
                                 run.records)
            if not report.ok:
                # A crashing checker is wrong about everything.
                rows.append(RSRow(judge.sample_index,
                                  {s: False for s in scenario_indexes},
                                  report.status, retire_round=retire))
                continue
            cells = {s: True for s in scenario_indexes}
            for scenario, verdict in report.verdicts.items():
                cells[scenario] = verdict.passed
            rows.append(RSRow(judge.sample_index, cells,
                              retire_round=retire))

        if not scenario_indexes:
            # The driver produced no records against any judge RTL.
            return ValidationReport(False, note="driver produced no dump",
                                    matrix=build_matrix((), rows))
        matrix = build_matrix(scenario_indexes, rows)
        return decide(matrix, self.criterion)
