"""AutoEval grading: golden artifacts, levels, agreement computation."""

import dataclasses
import inspect

import pytest

from repro.codegen import render_checker_core, render_driver
from repro.core import HybridTestbench, MonolithicTestbench
from repro.eval import (EvalLevel, N_MUTANTS, evaluate, golden_artifacts,
                        hybrid_verdict)
from repro.eval.autoeval import evaluate_hybrid, evaluate_monolithic
from repro.eval.golden import hybrid_verdicts_batch
import repro.core.simulation as simulation
from repro.hdl.lockstep import LockstepUnsupported
from repro.mutation import Mutant, inject_verilog_syntax_fault
from repro.problems import get_task


def golden_tb(task):
    plan = task.canonical_scenarios()
    return HybridTestbench(
        task_id=task.task_id, driver_src=render_driver(task, plan),
        checker_src=render_checker_core(task),
        scenarios=tuple((s.index, s.description) for s in plan))


class TestGoldenArtifacts:
    def test_cached_identity(self):
        assert (golden_artifacts("cmb_eq4")
                is golden_artifacts("cmb_eq4"))

    def test_mutants_present_and_mostly_killed(self):
        golden = golden_artifacts("cmb_alu4")
        assert len(golden.mutants) == N_MUTANTS
        # The golden TB should catch most single-site mutants.
        assert golden.killed_mutants >= N_MUTANTS // 2

    def test_golden_tb_passes_golden_rtl(self):
        task = get_task("seq_count4_up")
        golden = golden_artifacts(task.task_id)
        assert hybrid_verdict(golden.testbench, task.golden_rtl(),
                              task) is True


class TestEvalLevels:
    def test_golden_tb_reaches_eval2(self):
        for task_id in ("cmb_eq4", "cmb_kmap3_a", "seq_count4_up",
                        "seq_detect_101_ov"):
            task = get_task(task_id)
            result = evaluate(golden_tb(task))
            assert result.level == EvalLevel.EVAL2, (task_id,
                                                     result.detail)

    def test_syntax_broken_driver_is_failed(self):
        task = get_task("cmb_eq4")
        tb = golden_tb(task)
        broken = HybridTestbench(
            task_id=tb.task_id,
            driver_src=inject_verilog_syntax_fault(tb.driver_src, 0),
            checker_src=tb.checker_src, scenarios=tb.scenarios)
        assert evaluate(broken).level == EvalLevel.FAILED

    def test_syntax_broken_checker_is_failed(self):
        task = get_task("cmb_eq4")
        tb = golden_tb(task)
        broken = HybridTestbench(
            task_id=tb.task_id, driver_src=tb.driver_src,
            checker_src="class RefModel\n  oops", scenarios=tb.scenarios)
        assert evaluate(broken).level == EvalLevel.FAILED

    def test_wrong_checker_stops_at_eval0(self):
        task = get_task("cmb_dec2to4")
        tb = golden_tb(task)
        wrong = HybridTestbench(
            task_id=tb.task_id, driver_src=tb.driver_src,
            checker_src=render_checker_core(
                task, task.variant_params(task.variants[0])),
            scenarios=tb.scenarios)
        result = evaluate(wrong)
        assert result.level == EvalLevel.EVAL0

    def test_weak_tb_stops_at_eval1(self):
        # A drastically thinned driver passes the golden DUT but cannot
        # discriminate the mutants the golden TB kills.
        task = get_task("cmb_kmap4_a")
        plan = task.canonical_scenarios()[:1]
        thin_plan = tuple(
            type(plan[0])(s.index, s.name, s.description, s.vectors[:1])
            for s in plan)
        weak = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, thin_plan),
            checker_src=render_checker_core(task),
            scenarios=tuple((s.index, s.description) for s in thin_plan))
        result = evaluate(weak)
        assert result.level == EvalLevel.EVAL1, result.detail
        assert result.agreement is not None
        assert result.agreement < 0.8

    def test_eval_result_passes_api(self):
        result = evaluate(golden_tb(get_task("cmb_eq4")))
        assert result.passes(EvalLevel.EVAL0)
        assert result.passes(EvalLevel.EVAL2)

    def test_monolithic_eval(self):
        from repro.codegen import render_baseline_tb
        task = get_task("cmb_eq4")
        tb = MonolithicTestbench(
            task_id=task.task_id,
            source=render_baseline_tb(task, task.canonical_scenarios(),
                                      render_checker_core(task)))
        assert evaluate(tb).level >= EvalLevel.EVAL1

    def test_monolithic_syntax_failure(self):
        tb = MonolithicTestbench(task_id="cmb_eq4",
                                 source="module tb(; endmodule")
        assert evaluate(tb).level == EvalLevel.FAILED

    def test_unknown_artifact_type_rejected(self):
        with pytest.raises(TypeError):
            evaluate(object())


# ----------------------------------------------------------------------
# Edge cases, pinned under both mutant-sweep paths
# ----------------------------------------------------------------------
@pytest.fixture(params=["lockstep", "per-mutant"])
def engine(request, monkeypatch):
    """Run the sweeps lockstep, or refuse lockstep so every sweep takes
    its per-mutant fallback."""
    if request.param == "per-mutant":
        def refuse(*args):
            raise LockstepUnsupported("per-mutant leg")
        monkeypatch.setattr(simulation, "_lockstep_sweep", refuse)
    return request.param


class TestEvalEdgeCases:
    def test_zero_mutant_task_reaches_eval2(self, engine):
        task = get_task("cmb_eq4")
        golden = dataclasses.replace(golden_artifacts(task.task_id),
                                     mutants=(), mutant_verdicts=())
        result = evaluate_hybrid(golden_tb(task), golden=golden)
        # No mutants to disagree with: vacuous 100% agreement.
        assert result.level == EvalLevel.EVAL2
        assert result.agreement == 1.0

    def test_crashed_mutant_counts_as_disagreement(self, engine):
        # An oscillating mutant starves the statement budget, so the
        # candidate TB's run produces a None verdict; `None` never
        # agrees with the reference, whatever it recorded.
        task = get_task("cmb_eq4")
        oscillating = task.golden_rtl().replace(
            "endmodule", "wire osc;\nassign osc = ~osc;\nendmodule")
        golden = dataclasses.replace(
            golden_artifacts(task.task_id),
            mutants=(Mutant(oscillating, "oscillator", 0),),
            mutant_verdicts=(False,))
        result = evaluate_hybrid(golden_tb(task), golden=golden)
        assert result.level == EvalLevel.EVAL1
        assert result.agreement == 0.0

    def test_exactly_at_80_percent_boundary(self, engine):
        # Eval2 requires agreement >= 0.80: with ten mutants, eight
        # matching verdicts is Eval2 and seven is Eval1.
        task = get_task("cmb_alu4")
        golden = golden_artifacts(task.task_id)
        tb = golden_tb(task)
        candidate = hybrid_verdicts_batch(
            tb, [mutant.source for mutant in golden.mutants], task)
        assert len(candidate) == N_MUTANTS
        assert all(verdict is not None for verdict in candidate)

        def reference_with_flips(n_flips):
            flipped = list(candidate)
            for index in range(n_flips):
                flipped[index] = not flipped[index]
            return dataclasses.replace(
                golden, mutant_verdicts=tuple(flipped))

        at_boundary = evaluate_hybrid(tb, golden=reference_with_flips(2))
        below = evaluate_hybrid(tb, golden=reference_with_flips(3))
        assert at_boundary.level == EvalLevel.EVAL2
        assert at_boundary.agreement == pytest.approx(0.8)
        assert below.level == EvalLevel.EVAL1
        assert below.agreement == pytest.approx(0.7)

    def test_sim_jobs_serial_vs_pool_parity(self, engine):
        task = get_task("cmb_kmap3_a")
        tb = golden_tb(task)
        default = evaluate_hybrid(tb)
        serial = evaluate_hybrid(tb, sim_jobs=1)
        pooled = evaluate_hybrid(tb, sim_jobs=2)
        assert default == serial == pooled


def test_sim_jobs_defaults_resolve_through_context():
    # Satellite fix: `sim_jobs=1` hard-coded serial execution; None now
    # defers to SimContext.jobs resolution inside the batch APIs.
    for fn in (evaluate, evaluate_hybrid, evaluate_monolithic,
               hybrid_verdicts_batch):
        parameters = inspect.signature(fn).parameters
        name = "sim_jobs" if "sim_jobs" in parameters else "jobs"
        assert parameters[name].default is None, fn.__name__
