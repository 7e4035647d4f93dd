"""The fixed checker interface ("completed by a Python script").

Executes a generated checker core (`RefModel`) over the driver's dump
records and produces the per-scenario pass/fail report the validator and
AutoEval consume.  State carries across scenarios in dump order, exactly
like the DUT's state during the driver run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..problems.model import (CheckerModelError, Port, compile_checker,
                              load_ref_model)
from .simulation import Record

CHECKER_SYNTAX = "checker_syntax"
CHECKER_RUNTIME = "checker_runtime"
CHECK_OK = "ok"


@dataclass
class ScenarioVerdict:
    scenario: int
    passed: bool
    mismatches: list[str] = field(default_factory=list)


@dataclass
class CheckReport:
    """Outcome of checking one dump against one checker core."""

    status: str  # CHECK_OK / CHECKER_SYNTAX / CHECKER_RUNTIME
    verdicts: dict[int, ScenarioVerdict] = field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == CHECK_OK

    @property
    def all_passed(self) -> bool:
        return self.ok and all(v.passed for v in self.verdicts.values())

    @property
    def failed_scenarios(self) -> tuple[int, ...]:
        return tuple(sorted(s for s, v in self.verdicts.items()
                            if not v.passed))

    @property
    def passed_scenarios(self) -> tuple[int, ...]:
        return tuple(sorted(s for s, v in self.verdicts.items()
                            if v.passed))


def checker_compiles(checker_src: str) -> bool:
    """Eval0-side syntax check of the Python half of the testbench."""
    try:
        compile_checker(checker_src, "<checker>")
    except SyntaxError:
        return False
    return True


def run_checker(checker_src: str, ports: Sequence[Port],
                records: Sequence[Record]) -> CheckReport:
    """Run a checker core over dump records.

    ``ports`` is the DUT interface (from the specification); it tells the
    fixed interface which dump fields are driven inputs (fed to
    ``RefModel.step``) and which are DUT outputs (compared against the
    model's return values).
    """
    driven = [p for p in ports
              if p.direction == "input" and p.role != "clock"]
    outputs = [p for p in ports if p.direction == "output"]

    try:
        model = load_ref_model(checker_src)
    except SyntaxError as exc:
        return CheckReport(CHECKER_SYNTAX, detail=str(exc))
    except CheckerModelError as exc:
        return CheckReport(CHECKER_RUNTIME, detail=str(exc))
    except Exception as exc:  # executing generated code
        return CheckReport(CHECKER_RUNTIME, detail=repr(exc))

    report = CheckReport(CHECK_OK)
    for record in records:
        verdict = report.verdicts.setdefault(
            record.scenario, ScenarioVerdict(record.scenario, True))
        inputs = {}
        for port in driven:
            raw = record.values.get(port.name, "x")
            inputs[port.name] = 0 if raw == "x" else int(raw) & port.mask
        try:
            expected = model.step(inputs)
        except Exception as exc:
            return CheckReport(CHECKER_RUNTIME,
                               detail=f"RefModel.step raised {exc!r}")
        for port in outputs:
            raw = record.values.get(port.name, "x")
            try:
                want = int(expected[port.name]) & port.mask
            except Exception as exc:
                return CheckReport(
                    CHECKER_RUNTIME,
                    detail=f"RefModel returned bad outputs: {exc!r}")
            if raw == "x" or (int(raw) & port.mask) != want:
                verdict.passed = False
                verdict.mismatches.append(
                    f"scenario {record.scenario}: {port.name} = {raw}, "
                    f"expected {want}")
    return report
