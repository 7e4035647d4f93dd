"""Generator, validator, corrector: pipeline-stage behaviour."""

import repro.core.validator as validator_mod
from repro.codegen import render_checker_core, render_driver
from repro.core import (AutoBenchGenerator, CRITERION_70, Corrector,
                        DirectBaseline, HybridTestbench, ScenarioValidator,
                        build_rtl_group)
import repro.core.checker_runtime as checker_runtime
from repro.core.checker_runtime import checker_compiles
from repro.core.rtl_group import JudgeRtl
from repro.core.simulation import run_driver, syntax_ok
from repro.llm import GPT_4O, GPT_4O_MINI, MeteredClient, UsageMeter
from repro.llm.synthetic import SyntheticLLM
from repro.problems import get_task


def client_for(profile=GPT_4O, seed=0):
    return MeteredClient(SyntheticLLM(profile, seed=seed), UsageMeter())


class TestGenerator:
    def test_produces_syntax_clean_artifacts_usually(self):
        # Auto-debug makes the post-enhancement syntax rate far lower
        # than the raw per-sample rate.
        clean = 0
        total = 20
        for seed in range(total):
            client = client_for(seed=seed)
            tb = AutoBenchGenerator(client, get_task("cmb_eq4")).generate()
            if syntax_ok(tb.driver_src) and checker_compiles(tb.checker_src):
                clean += 1
        assert clean >= total * 0.8

    def test_scenarios_recovered_from_driver(self):
        client = client_for()
        tb = AutoBenchGenerator(client, get_task("cmb_mux2to1_8b")
                                ).generate()
        assert tb.scenarios
        assert all(isinstance(i, int) for i, _ in tb.scenarios)

    def test_generation_deterministic(self):
        task = get_task("seq_tff")
        a = AutoBenchGenerator(client_for(seed=4), task).generate(attempt=1)
        b = AutoBenchGenerator(client_for(seed=4), task).generate(attempt=1)
        assert a.driver_src == b.driver_src
        assert a.checker_src == b.checker_src

    def test_attempts_differ(self):
        task = get_task("seq_tff")
        client = client_for(seed=4)
        generator = AutoBenchGenerator(client, task)
        a = generator.generate(attempt=0)
        b = generator.generate(attempt=1)
        assert (a.driver_src, a.checker_src) != (b.driver_src,
                                                 b.checker_src)


class TestBaselineMethod:
    def test_generates_monolithic_tb(self):
        client = client_for()
        tb = DirectBaseline(client, get_task("cmb_eq4")).generate()
        assert tb.task_id == "cmb_eq4"
        assert "module tb" in tb.source


class TestRtlGroup:
    def test_group_size_and_mostly_clean(self):
        client = client_for()
        group = build_rtl_group(client, get_task("cmb_alu4"),
                                group_size=20)
        assert len(group) == 20
        clean = sum(1 for judge in group if judge.syntax_ok)
        # The paper's regeneration rule guarantees at least half.
        assert clean >= 10

    def test_group_diverse(self):
        client = client_for(GPT_4O_MINI)
        group = build_rtl_group(client, get_task("seq_mod10"),
                                group_size=20)
        assert len({judge.source for judge in group}) > 3


class TestValidator:
    def test_golden_tb_validates_correct(self):
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        golden_tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(task),
            scenarios=tuple((s.index, s.description) for s in plan))
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        report = validator.validate(golden_tb)
        assert report.verdict is True

    def test_sabotaged_checker_flagged_wrong(self):
        # Use a variant that is NOT the model's own sticky misconception:
        # a checker wrong in a way the judge group does not share must be
        # flagged.  (A checker sharing the sticky misconception can fool
        # the validator — that failure mode is the paper's Section III-B
        # argument, covered by the Fig. 6a study.)
        from repro.llm.faults import FaultModel
        task = get_task("cmb_dec2to4")
        sticky = FaultModel(GPT_4O, seed=0).sticky_misconception(task)
        variant = next(v for v in task.variants if v.vid != sticky.vid)
        plan = task.canonical_scenarios()
        wrong_tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(
                task, task.variant_params(variant)),
            scenarios=tuple((s.index, s.description) for s in plan))
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        report = validator.validate(wrong_tb)
        assert report.verdict is False
        assert report.wrong

    def test_crashing_checker_flagged_wrong(self):
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        broken_tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src="class RefModel:\n    pass\n",
            scenarios=tuple((s.index, s.description) for s in plan))
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        assert validator.validate(broken_tb).verdict is False

    def test_checker_runs_once_for_equal_judges(self, monkeypatch):
        # Judges that differ only in trivia share one run, so
        # RefModel.step runs once per record, not once per judge.
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(task),
            scenarios=tuple((s.index, s.description) for s in plan))
        golden = task.golden_rtl()
        sources = [f"// RTL implementation attempt {k}\n" + golden
                   for k in range(8)]
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        validator.use_group(JudgeRtl(src, k, True)
                            for k, src in enumerate(sources))
        steps = []
        load = checker_runtime.load_ref_model

        def counting_load(source):
            model = load(source)
            step = model.step
            model.step = lambda inputs: steps.append(1) or step(inputs)
            return model

        monkeypatch.setattr(checker_runtime, "load_ref_model",
                            counting_load)
        report = validator.validate(tb)
        assert report.verdict is True
        assert report.matrix.n_valid == len(sources)
        assert len(steps) == len(run_driver(tb.driver_src,
                                            golden).records)

    def test_group_reused_across_validations(self):
        task = get_task("cmb_dec2to4")
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        first = validator.rtl_group
        assert validator.rtl_group is first

    def test_simulation_cache_hits_on_checker_swap(self):
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(task),
            scenarios=tuple((s.index, s.description) for s in plan))
        validator.validate(tb)
        cache_size = len(validator._sim_cache)
        # Same driver, different checker -> no new simulations.
        validator.validate(HybridTestbench(
            task_id=tb.task_id, driver_src=tb.driver_src,
            checker_src=render_checker_core(
                task, task.variant_params(task.variants[0])),
            scenarios=tb.scenarios))
        assert len(validator._sim_cache) == cache_size

    def test_judge_cache_keys_on_driver_text(self, monkeypatch):
        sweeps = []
        real_sweep = validator_mod.run_mutant_sweep

        def counting_sweep(driver_src, *args, **kwargs):
            sweeps.append(driver_src)
            return real_sweep(driver_src, *args, **kwargs)

        monkeypatch.setattr(validator_mod, "run_mutant_sweep",
                            counting_sweep)
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        validator = ScenarioValidator(client_for(), task, CRITERION_70)
        tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(task),
            scenarios=tuple((s.index, s.description) for s in plan))
        first = validator.validate(tb)
        assert len(sweeps) == 1

        # Equal text in a different string object: every judge hits.
        copy = "".join(list(tb.driver_src))
        assert copy is not tb.driver_src
        again = validator.validate(HybridTestbench(
            task_id=tb.task_id, driver_src=copy,
            checker_src=tb.checker_src, scenarios=tb.scenarios))
        assert len(sweeps) == 1
        assert again.verdict == first.verdict

        # A one-character edit is a different driver: the judges re-run.
        validator.validate(HybridTestbench(
            task_id=tb.task_id, driver_src=tb.driver_src + " ",
            checker_src=tb.checker_src, scenarios=tb.scenarios))
        assert sweeps[1:] == [tb.driver_src + " "]


class TestCorrector:
    def test_two_stage_conversation_rewrites_checker(self):
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        wrong_tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(
                task, task.variant_params(task.variants[0])),
            scenarios=tuple((s.index, s.description) for s in plan))
        client = client_for()
        validator = ScenarioValidator(client, task, CRITERION_70)
        report = validator.validate(wrong_tb)
        outcome = Corrector(client).correct(task, wrong_tb, report, 1)
        assert outcome.testbench.origin == "corrector"
        assert outcome.testbench.driver_src == wrong_tb.driver_src
        assert "Step" in outcome.reasoning

    def test_correction_counts_tokens(self):
        task = get_task("cmb_dec2to4")
        plan = task.canonical_scenarios()
        tb = HybridTestbench(
            task_id=task.task_id,
            driver_src=render_driver(task, plan),
            checker_src=render_checker_core(task),
            scenarios=tuple((s.index, s.description) for s in plan))
        client = client_for()
        validator = ScenarioValidator(client, task, CRITERION_70)
        report = validator.validate(tb)
        before = client.meter.total.total_tokens
        Corrector(client).correct(task, tb, report, 1)
        usage = client.meter.by_kind()
        assert "correct_reason" in usage
        assert "correct_rewrite" in usage
        assert client.meter.total.total_tokens > before
