"""Task data-model validation."""

import pytest

from repro.problems.model import (CMB, CheckerModelError, Port, Scenario,
                                  SEQ, TaskSpec, load_ref_model,
                                  run_model_on_plan)


class TestPort:
    def test_mask(self):
        assert Port("a", "input", 4).mask == 0xF

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            Port("a", "sideways", 1)

    def test_invalid_role(self):
        with pytest.raises(ValueError):
            Port("a", "input", 1, role="power")

    def test_zero_width(self):
        with pytest.raises(ValueError):
            Port("a", "input", 0)


class TestScenario:
    def test_one_based_index(self):
        with pytest.raises(ValueError):
            Scenario(0, "s", "d", ({"a": 1},))

    def test_empty_vectors(self):
        with pytest.raises(ValueError):
            Scenario(1, "s", "d", ())


def _tiny_task(**overrides):
    ports = overrides.pop("ports", (
        Port("a", "input", 4), Port("out", "output", 4)))
    kwargs = dict(
        task_id="t", family="f", kind=CMB, title="tiny",
        difficulty=0.1, ports=ports, params={},
        spec_renderer=lambda p: "spec",
        rtl_renderer=lambda p: "module top_module(); endmodule",
        model_renderer=lambda p: (
            "class RefModel:\n"
            "    def step(self, inputs):\n"
            "        return {'out': inputs['a']}\n"),
        scenario_builder=lambda p, rng: (
            Scenario(1, "s", "d", ({"a": 3},)),),
        variants=(),
    )
    kwargs.update(overrides)
    return TaskSpec(**kwargs)


class TestTaskSpec:
    def test_minimal_valid(self):
        task = _tiny_task()
        assert task.driven_ports[0].name == "a"
        assert task.output_ports[0].name == "out"

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValueError):
            _tiny_task(ports=(Port("a", "input", 1),
                              Port("a", "output", 1)))

    def test_seq_needs_clock(self):
        with pytest.raises(ValueError):
            _tiny_task(kind=SEQ)

    def test_cmb_must_not_have_clock(self):
        with pytest.raises(ValueError):
            _tiny_task(ports=(Port("clk", "input", 1, "clock"),
                              Port("out", "output", 1)))

    def test_needs_output(self):
        with pytest.raises(ValueError):
            _tiny_task(ports=(Port("a", "input", 1),))

    def test_plan_vector_keys_validated(self):
        task = _tiny_task(scenario_builder=lambda p, rng: (
            Scenario(1, "s", "d", ({"wrong_name": 1},)),))
        with pytest.raises(ValueError):
            task.canonical_scenarios()

    def test_plan_index_order_validated(self):
        task = _tiny_task(scenario_builder=lambda p, rng: (
            Scenario(2, "s", "d", ({"a": 1},)),))
        with pytest.raises(ValueError):
            task.canonical_scenarios()

    def test_canonical_plan_is_stable(self):
        task = _tiny_task(scenario_builder=lambda p, rng: (
            Scenario(1, "s", "d", ({"a": rng.randrange(16)},)),))
        assert (task.canonical_scenarios()
                == task.canonical_scenarios())

    def test_variant_params_merge(self):
        from repro.problems.model import Variant
        task = _tiny_task(params={"x": 1, "y": 2})
        merged = task.variant_params(Variant("v", "d", {"y": 9}))
        assert merged == {"x": 1, "y": 9}


class TestRefModelLoading:
    def test_load_and_step(self):
        model = load_ref_model(
            "class RefModel:\n"
            "    def step(self, inputs):\n"
            "        return {'out': inputs['a'] + 1}\n")
        assert model.step({"a": 1}) == {"out": 2}

    def test_missing_class(self):
        with pytest.raises(CheckerModelError):
            load_ref_model("x = 1\n")

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            load_ref_model("class RefModel\n    pass\n")

    def test_repeated_loads_share_no_state(self):
        source = ("class RefModel:\n"
                  "    seen = []\n"
                  "    def step(self, inputs):\n"
                  "        self.seen.append(inputs['a'])\n"
                  "        return {'out': len(self.seen)}\n")
        first = load_ref_model(source)
        assert first.step({"a": 1}) == {"out": 1}
        assert first.step({"a": 2}) == {"out": 2}
        second = load_ref_model(source)
        assert type(second) is not type(first)
        assert second.step({"a": 3}) == {"out": 1}

    def test_repeated_syntax_error_keeps_its_message(self):
        source = "class RefModel\n    pass\n"
        messages = []
        for _ in range(2):
            with pytest.raises(SyntaxError) as info:
                load_ref_model(source)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "<checker-core>" in messages[0]

    def test_run_model_on_plan_masks_outputs(self):
        source = (
            "class RefModel:\n"
            "    def step(self, inputs):\n"
            "        return {'out': 0x1FF}\n")
        plan = (Scenario(1, "s", "d", ({"a": 0},)),)
        outputs = run_model_on_plan(source, plan,
                                    (Port("out", "output", 8),))
        assert outputs[1][0]["out"] == 0xFF

    def test_run_model_state_carries_across_scenarios(self):
        source = (
            "class RefModel:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def step(self, inputs):\n"
            "        self.n += 1\n"
            "        return {'out': self.n}\n")
        plan = (Scenario(1, "a", "d", ({"a": 0}, {"a": 0})),
                Scenario(2, "b", "d", ({"a": 0},)))
        outputs = run_model_on_plan(source, plan,
                                    (Port("out", "output", 8),))
        assert outputs[2][0]["out"] == 3
