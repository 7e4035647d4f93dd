"""Task model of the benchmark dataset.

The original evaluation uses 156 HDLBits problems (via VerilogEval-Human):
small RTL blocks with a natural-language spec, a golden RTL implementation,
and mutant DUTs.  Offline we rebuild the same population from parameterised
task families.  Each :class:`TaskSpec` carries everything the pipeline and
the synthetic LLM need:

- the natural-language **spec** (sole pipeline input, as in the paper),
- the **golden RTL** (module ``top_module``, as in VerilogEval),
- the **golden checker model** source (a Python ``RefModel`` class),
- a canonical **scenario plan** builder,
- a list of behavioural **variants** — plausible misconceptions expressed
  as parameter perturbations.  Rendering the RTL template and the checker
  template from the *same* perturbed parameters yields a wrong RTL and a
  wrong checker with *identical* wrong behaviour, which is exactly the
  correlated-error mode that limits the paper's validator below 100%.

Checker model convention
------------------------
The rendered checker core defines ``class RefModel`` with:

``__init__(self)``
    construct; initialise state (sequential tasks),
``step(self, inputs: dict) -> dict``
    combinational tasks: pure function of the inputs;
    sequential tasks: advance one clock cycle with the inputs held through
    the cycle (reset is an ordinary input) and return the output values
    sampled just after the rising edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from types import CodeType
from typing import Any, Callable, Mapping

CMB = "CMB"
SEQ = "SEQ"


@dataclass(frozen=True)
class Port:
    """One port of the design under test."""

    name: str
    direction: str  # "input" | "output"
    width: int = 1
    role: str = "data"  # "clock" | "reset" | "data"

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ValueError(f"invalid port direction {self.direction!r}")
        if self.role not in ("clock", "reset", "data"):
            raise ValueError(f"invalid port role {self.role!r}")
        if self.width < 1:
            raise ValueError(f"port {self.name!r}: width must be >= 1")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class Scenario:
    """One test scenario: a named sequence of check-points.

    Every vector maps each *driven* port (all inputs except the clock) to an
    integer value.  For sequential tasks one vector is one clock cycle; for
    combinational tasks one vector is one settled input pattern.
    """

    index: int  # 1-based, as printed in the dump lines
    name: str
    description: str
    vectors: tuple[Mapping[str, int], ...]

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("scenario indexes are 1-based")
        if not self.vectors:
            raise ValueError(f"scenario {self.name!r} has no vectors")


@dataclass(frozen=True)
class Variant:
    """A plausible misconception: the same task with perturbed parameters."""

    vid: str
    description: str
    overrides: Mapping[str, Any]


@dataclass(frozen=True)
class TaskSpec:
    """A fully-specified benchmark task."""

    task_id: str
    family: str
    kind: str  # CMB | SEQ
    title: str
    difficulty: float  # latent hardness in [0, 1]
    ports: tuple[Port, ...]
    params: Mapping[str, Any]
    spec_renderer: Callable[[Mapping[str, Any]], str]
    rtl_renderer: Callable[[Mapping[str, Any]], str]
    model_renderer: Callable[[Mapping[str, Any]], str]
    scenario_builder: Callable[
        [Mapping[str, Any], random.Random], tuple[Scenario, ...]]
    variants: tuple[Variant, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in (CMB, SEQ):
            raise ValueError(f"invalid task kind {self.kind!r}")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError("difficulty must be within [0, 1]")
        names = [p.name for p in self.ports]
        if len(names) != len(set(names)):
            raise ValueError(f"task {self.task_id}: duplicate port names")
        if self.kind == SEQ and self.clock_port is None:
            raise ValueError(f"task {self.task_id}: SEQ task needs a clock")
        if self.kind == CMB and self.clock_port is not None:
            raise ValueError(f"task {self.task_id}: CMB task has a clock")
        if not any(p.direction == "output" for p in self.ports):
            raise ValueError(f"task {self.task_id}: no outputs")

    # ------------------------------------------------------------------
    # Port views
    # ------------------------------------------------------------------
    @property
    def clock_port(self) -> Port | None:
        for port in self.ports:
            if port.role == "clock":
                return port
        return None

    @property
    def reset_port(self) -> Port | None:
        for port in self.ports:
            if port.role == "reset":
                return port
        return None

    @property
    def driven_ports(self) -> tuple[Port, ...]:
        """Inputs the driver assigns per vector (everything but the clock)."""
        return tuple(p for p in self.ports
                     if p.direction == "input" and p.role != "clock")

    @property
    def output_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction == "output")

    def port(self, name: str) -> Port:
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"task {self.task_id} has no port {name!r}")

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @property
    def spec_text(self) -> str:
        return self.spec_renderer(self.params)

    def golden_rtl(self) -> str:
        return self.rtl_renderer(self.params)

    def golden_model_source(self) -> str:
        return self.model_renderer(self.params)

    def variant_params(self, variant: Variant) -> dict[str, Any]:
        merged = dict(self.params)
        merged.update(variant.overrides)
        return merged

    def variant_rtl(self, variant: Variant) -> str:
        return self.rtl_renderer(self.variant_params(variant))

    def variant_model_source(self, variant: Variant) -> str:
        return self.model_renderer(self.variant_params(variant))

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------
    def scenarios(self, rng: random.Random) -> tuple[Scenario, ...]:
        """Build a scenario plan; stimulus values may use the RNG."""
        plan = self.scenario_builder(self.params, rng)
        self._check_plan(plan)
        return plan

    def canonical_scenarios(self) -> tuple[Scenario, ...]:
        """The fixed plan used for the golden testbench and dataset checks."""
        return self.scenarios(random.Random(f"golden::{self.task_id}"))

    def _check_plan(self, plan: tuple[Scenario, ...]) -> None:
        if not plan:
            raise ValueError(f"task {self.task_id}: empty scenario plan")
        driven = {p.name for p in self.driven_ports}
        for pos, scenario in enumerate(plan, start=1):
            if scenario.index != pos:
                raise ValueError(
                    f"task {self.task_id}: scenario indexes must be "
                    f"1..N in order (got {scenario.index} at position {pos})")
            for vector in scenario.vectors:
                missing = driven - set(vector)
                extra = set(vector) - driven
                if missing or extra:
                    raise ValueError(
                        f"task {self.task_id}, scenario {scenario.index}: "
                        f"vector keys mismatch (missing={sorted(missing)}, "
                        f"extra={sorted(extra)})")


class CheckerModelError(RuntimeError):
    """Raised when a checker core cannot be loaded or executed."""


@lru_cache(maxsize=256)
def compile_checker(source: str, filename: str) -> CodeType:
    """Compile checker-core source once per ``(source, filename)``.

    Code objects are immutable, so sharing one is safe.  Failed compiles
    are not cached: each raises its :class:`SyntaxError` anew.
    """
    return compile(source, filename, "exec")


def load_ref_model(source: str) -> Any:
    """Compile and instantiate the ``RefModel`` from checker-core source.

    Used by the checker runtime, the baseline generator (to precompute
    expected outputs) and the dataset self-checks.  Raises
    :class:`SyntaxError` for syntactically-broken cores — the caller maps
    this onto the Eval0 criterion — and :class:`CheckerModelError` for
    structurally-broken ones.
    """
    namespace: dict[str, Any] = {}
    code = compile_checker(source, "<checker-core>")
    exec(code, namespace)  # noqa: S102 - sandboxed, generated by this repo
    ref_model = namespace.get("RefModel")
    if ref_model is None:
        raise CheckerModelError("checker core defines no RefModel class")
    try:
        return ref_model()
    except Exception as exc:  # pragma: no cover - defensive
        raise CheckerModelError(f"RefModel construction failed: {exc}")


def run_model_on_plan(source: str, plan: tuple[Scenario, ...],
                      output_ports: tuple[Port, ...],
                      ) -> dict[int, list[dict[str, int]]]:
    """Run a checker model over a scenario plan.

    Returns ``{scenario index: [outputs per vector]}``.  State carries over
    between scenarios in plan order, exactly as the RTL state does during
    the driver run.
    """
    model = load_ref_model(source)
    results: dict[int, list[dict[str, int]]] = {}
    for scenario in plan:
        rows = []
        for vector in scenario.vectors:
            outputs = model.step(dict(vector))
            rows.append({p.name: int(outputs[p.name]) & p.mask
                         for p in output_ports})
        results[scenario.index] = rows
    return results
