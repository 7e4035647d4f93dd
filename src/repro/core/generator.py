"""AutoBench: the hybrid-testbench generator (paper Fig. 2).

Stages, exactly as the paper describes them:

1. **Scenario list** — ask the LLM for the test scenarios.
2. **Verilog driver** — ask for the driver over those scenarios.
3. **Python checker** — ask for the checker core.
4. **Self-enhancement**:
   a. *auto-debug*: up to 3 syntax-repair iterations per artifact,
   b. *scenario-list checking*: restore scenarios the driver dropped,
   c. *code standardisation*: the fixed checker interface is appended by
      the framework (here: enforced by the checker runtime).

The generator is purely a client of :class:`LLMClient` — every branch
below runs identically against a live API model.
"""

from __future__ import annotations

from ..codegen import parse_driver_scenarios, parse_scenario_listing
from ..hdl.errors import VerilogSyntaxError
from ..llm.base import GenerationIntent, LLMClient, MeteredClient
from ..llm.conversation import single_turn
from ..problems.model import TaskSpec, compile_checker
from ..util import extract_first_code_block
from . import prompts
from .artifacts import HybridTestbench
from .simulation import parse_cached

MAX_DEBUG_ITERATIONS = 3


class AutoBenchGenerator:
    """Generates hybrid testbenches for one task."""

    def __init__(self, client: LLMClient | MeteredClient, task: TaskSpec):
        self.client = client
        self.task = task

    # ------------------------------------------------------------------
    def _ask(self, kind: str, prompt: str, **payload) -> str:
        payload.setdefault("task", self.task)
        # Routed through the conversation layer so the exchange lands in
        # the active trace session (see repro.core.trace).
        return single_turn(
            self.client, prompts.SYSTEM_TESTBENCH, prompt,
            GenerationIntent(kind, self.task.task_id, payload))

    # ------------------------------------------------------------------
    def generate(self, attempt: int = 0) -> HybridTestbench:
        """Run the full AutoBench pipeline once."""
        spec = self.task.spec_text

        listing_text = self._ask(
            "scenarios", prompts.scenario_prompt(spec), attempt=attempt)
        listing = parse_scenario_listing(listing_text)

        driver_reply = self._ask(
            "driver", prompts.driver_prompt(spec, listing_text),
            attempt=attempt)
        driver_src = extract_first_code_block(driver_reply, "verilog")

        checker_reply = self._ask(
            "checker", prompts.checker_prompt(spec, listing_text),
            attempt=attempt)
        checker_src = extract_first_code_block(checker_reply, "python")

        driver_src = self._debug_driver(driver_src, attempt)
        checker_src = self._debug_checker(checker_src, attempt)
        driver_src = self._complete_scenarios(driver_src, listing, attempt)

        scenarios = tuple(parse_driver_scenarios(driver_src))
        return HybridTestbench(
            task_id=self.task.task_id, driver_src=driver_src,
            checker_src=checker_src, scenarios=scenarios,
            origin="autobench", generation_index=attempt)

    # ------------------------------------------------------------------
    # Self-enhancement stage a: auto-debug
    # ------------------------------------------------------------------
    def _debug_driver(self, driver_src: str, attempt: int) -> str:
        for iteration in range(MAX_DEBUG_ITERATIONS):
            try:
                parse_cached(driver_src)
                return driver_src
            except VerilogSyntaxError as exc:
                reply = self._ask(
                    "syntax_fix",
                    prompts.syntax_fix_prompt("Verilog", str(exc),
                                              driver_src),
                    attempt=attempt, artifact=driver_src, scope="driver",
                    iteration=iteration)
                driver_src = extract_first_code_block(reply, "verilog")
        return driver_src

    def _debug_checker(self, checker_src: str, attempt: int) -> str:
        for iteration in range(MAX_DEBUG_ITERATIONS):
            try:
                compile_checker(checker_src, "<checker>")
                return checker_src
            except SyntaxError as exc:
                reply = self._ask(
                    "syntax_fix",
                    prompts.syntax_fix_prompt("Python", str(exc),
                                              checker_src),
                    attempt=attempt, artifact=checker_src, scope="checker",
                    iteration=iteration)
                checker_src = extract_first_code_block(reply, "python")
        return checker_src

    # ------------------------------------------------------------------
    # Self-enhancement stage b: scenario-list checking
    # ------------------------------------------------------------------
    def _complete_scenarios(self, driver_src: str, listing, attempt: int,
                            ) -> str:
        planned = {index for index, _, _ in listing}
        if not planned:
            return driver_src
        present = {index for index, _ in parse_driver_scenarios(driver_src)}
        missing = sorted(planned - present)
        if not missing:
            return driver_src
        reply = self._ask(
            "scenario_fix", prompts.scenario_fix_prompt(missing,
                                                        driver_src),
            attempt=attempt, artifact=driver_src)
        return extract_first_code_block(reply, "verilog")
