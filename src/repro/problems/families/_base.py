"""Shared builders for task families.

Every family module in this package exposes ``build() -> list[TaskSpec]``.
The helpers here remove the boilerplate: port construction, module-source
assembly, checker-model class assembly, and generic scenario plans.

Template contract
-----------------
Families provide three small renderer callbacks, all parameterised over the
task's ``params`` mapping so that behavioural :class:`Variant` overrides
flow through *both* the RTL and the checker model:

``rtl_body(params) -> str``
    the items inside ``module top_module (...) ... endmodule``;
``model_init(params) -> str``
    the body of ``RefModel.__init__`` (empty string for pure tasks);
``model_step(params) -> str``
    the body of ``RefModel.step(self, inputs)``; must return a dict of
    output-port values.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..model import SEQ, Port, Scenario, TaskSpec, Variant

Params = Mapping[str, Any]


# ----------------------------------------------------------------------
# Ports
# ----------------------------------------------------------------------
def in_port(name: str, width: int = 1, role: str = "data") -> Port:
    return Port(name, "input", width, role)


def out_port(name: str, width: int = 1) -> Port:
    return Port(name, "output", width)


def clock(name: str = "clk") -> Port:
    return Port(name, "input", 1, "clock")


def reset(name: str = "reset") -> Port:
    return Port(name, "input", 1, "reset")


# ----------------------------------------------------------------------
# Verilog source assembly
# ----------------------------------------------------------------------
def _port_decl(port: Port, reg_outputs: frozenset[str]) -> str:
    rng = f" [{port.width - 1}:0]" if port.width > 1 else ""
    if port.direction == "output" and port.name in reg_outputs:
        return f"output reg{rng} {port.name}"
    return f"{port.direction}{rng} {port.name}"


def module_source(ports: Sequence[Port], body: str,
                  reg_outputs: Iterable[str] = (),
                  name: str = "top_module") -> str:
    """Assemble a complete module from the port list and the item body."""
    regs = frozenset(reg_outputs)
    decls = ",\n    ".join(_port_decl(p, regs) for p in ports)
    body = body.strip("\n")
    return f"module {name} (\n    {decls}\n);\n{body}\nendmodule\n"


# ----------------------------------------------------------------------
# Checker model source assembly
# ----------------------------------------------------------------------
def _indent(text: str, prefix: str) -> str:
    return "\n".join(prefix + line if line.strip() else ""
                     for line in text.strip("\n").splitlines())


def model_class_source(task_id: str, init_body: str, step_body: str) -> str:
    """Assemble the ``RefModel`` checker core from the two bodies."""
    init_body = init_body.strip("\n") or "pass"
    step_body = step_body.strip("\n")
    if not step_body:
        raise ValueError("model step body must not be empty")
    return (
        "class RefModel:\n"
        f'    """Reference model for task {task_id}."""\n'
        "\n"
        "    def __init__(self):\n"
        f"{_indent(init_body, '        ')}\n"
        "\n"
        "    def step(self, inputs):\n"
        f"{_indent(step_body, '        ')}\n"
    )


# ----------------------------------------------------------------------
# Generic scenario plans
# ----------------------------------------------------------------------
def scenario(index: int, name: str, description: str,
             vectors: Sequence[Mapping[str, int]]) -> Scenario:
    return Scenario(index, name, description,
                    tuple(dict(v) for v in vectors))


def random_vector(rng: random.Random, ports: Sequence[Port]) -> dict[str, int]:
    return {p.name: rng.randrange(1 << p.width) for p in ports}


def cmb_scenarios(ports: Sequence[Port], rng: random.Random,
                  n_scenarios: int = 5, vectors_per: int = 4,
                  ) -> tuple[Scenario, ...]:
    """Generic combinational plan: random patterns, plus corner patterns.

    Scenario 1 always exercises the all-zero / all-one corners so constant
    faults are caught even by thin plans.
    """
    plans = []
    corners = [{p.name: 0 for p in ports}, {p.name: p.mask for p in ports}]
    plans.append(scenario(1, "corner_patterns",
                          "All-zero and all-one input corners.", corners))
    for k in range(2, n_scenarios + 1):
        vectors = [random_vector(rng, ports) for _ in range(vectors_per)]
        plans.append(scenario(
            k, f"random_patterns_{k - 1}",
            f"Randomised input patterns, group {k - 1}.", vectors))
    return tuple(plans)


def exhaustive_cmb_scenarios(ports: Sequence[Port], rng: random.Random,
                             group_size: int = 4) -> tuple[Scenario, ...]:
    """Exhaustive plan for small input spaces, chunked into scenarios."""
    names = [p.name for p in ports]
    spaces = [range(1 << p.width) for p in ports]
    vectors = [dict(zip(names, combo)) for combo in product(*spaces)]
    plans = []
    for k, start in enumerate(range(0, len(vectors), group_size), start=1):
        chunk = vectors[start:start + group_size]
        plans.append(scenario(
            k, f"exhaustive_{k}",
            f"Exhaustive input sweep, patterns {start}.."
            f"{start + len(chunk) - 1}.", chunk))
    return tuple(plans)


def seq_scenarios(ports: Sequence[Port], rng: random.Random,
                  reset_name: str | None, n_scenarios: int = 5,
                  cycles_per: int = 6, reset_cycles: int = 2,
                  hold_zero_prob: float = 0.25) -> tuple[Scenario, ...]:
    """Generic sequential plan.

    Every scenario starts with ``reset_cycles`` cycles of asserted reset so
    that state is known, followed by random stimulus cycles.  Ports other
    than the reset get random values; occasionally a port is held at zero
    for a whole scenario to expose enable/hold misconceptions.
    """
    data_ports = [p for p in ports
                  if p.name != reset_name and p.role != "clock"
                  and p.direction == "input"]
    plans = []
    for k in range(1, n_scenarios + 1):
        held = {p.name for p in data_ports
                if p.role == "data" and rng.random() < hold_zero_prob}
        vectors = []
        for cycle in range(cycles_per + reset_cycles):
            vec = {}
            for p in data_ports:
                vec[p.name] = 0 if p.name in held else rng.randrange(
                    1 << p.width)
            if reset_name is not None:
                vec[reset_name] = 1 if cycle < reset_cycles else 0
            vectors.append(vec)
        plans.append(scenario(
            k, f"reset_then_random_{k}",
            "Assert reset, then drive randomised cycles.", vectors))
    return tuple(plans)


# ----------------------------------------------------------------------
# Task assembly
# ----------------------------------------------------------------------
def build_task(*, task_id: str, family: str, kind: str, title: str,
               difficulty: float, ports: Sequence[Port], params: Params,
               spec_body: Callable[[Params], str],
               rtl_body: Callable[[Params], str],
               model_init: Callable[[Params], str],
               model_step: Callable[[Params], str],
               scenario_builder: Callable[
                   [Params, random.Random], tuple[Scenario, ...]],
               variants: Sequence[Variant],
               reg_outputs: Iterable[str] = ()) -> TaskSpec:
    """Assemble a TaskSpec from family callbacks."""
    ports = tuple(ports)
    regs = tuple(reg_outputs)

    def spec_renderer(p: Params) -> str:
        return _spec_with_interface(title, ports, kind, spec_body(p))

    def rtl_renderer(p: Params) -> str:
        return module_source(ports, rtl_body(p), regs)

    def model_renderer(p: Params) -> str:
        return model_class_source(task_id, model_init(p), model_step(p))

    return TaskSpec(
        task_id=task_id, family=family, kind=kind, title=title,
        difficulty=difficulty, ports=ports, params=dict(params),
        spec_renderer=spec_renderer, rtl_renderer=rtl_renderer,
        model_renderer=model_renderer, scenario_builder=scenario_builder,
        variants=tuple(variants),
    )


def _spec_with_interface(title: str, ports: Sequence[Port], kind: str,
                         body: str) -> str:
    lines = [f"Design an RTL module named top_module: {title}", ""]
    lines.append("Interface:")
    for p in ports:
        width = f"[{p.width - 1}:0] " if p.width > 1 else ""
        role = f" ({p.role})" if p.role != "data" else ""
        lines.append(f"  - {p.direction} {width}{p.name}{role}")
    lines.append("")
    circuit = ("sequential (clocked on the rising edge)"
               if kind == SEQ else "purely combinational")
    lines.append(f"The circuit is {circuit}.")
    lines.append("")
    lines.append(body.strip())
    return "\n".join(lines) + "\n"


def variant(vid: str, description: str, **overrides: Any) -> Variant:
    return Variant(vid, description, overrides)
