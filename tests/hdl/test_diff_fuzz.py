"""Differential fuzzing: random HDL programs through every execution path.

A seeded generator produces small valid-by-construction programs
covering the supported surface — procedural blocks (delays, event
controls, loops, case/ternary), combinational logic (continuous
assigns, ``always @(*)`` case blocks), hierarchy (a child module
instance, both net-aliased and expression-bound ports), 4-state
``x``/``z`` literals, memories and ``$display`` formatting.  Every
program also prints one line twice that reads a net and a constant
many times, partly in a left-deep operator run, so leaf sharing and
the looped lowering of such runs are checked too.  Like a generated
testbench driver, a program may repeat whole statements: the same dump
``$fdisplay`` after every stimulus step, and an earlier step's
stimulus and ``$display`` lines verbatim, so each such statement
lowers once and runs from several places.  Each program is executed
four ways:

1. the reference interpreter (``tests/oracles/``),
2. the compiled simulator with a cold program cache (first compile of
   the slot-indexed programs),
3. the compiled simulator again on a fresh elaboration, which must hit
   the shared-program cache and only *rebind* the slot tables — the
   path every production driver/DUT re-pairing takes,
4. the compiled simulator on the program instantiated inside a
   differently named wrapper module — another source text, so another
   parsed AST, at another scope prefix — once straight after (3), where
   its processes share programs by structural key, and once cold.

All runs must produce identical observable traces: stdout, emitted
files, finish flag, final simulation time and the final (VCD-visible)
value of every signal and memory word (the wrapped run's names lose
their instance prefix).  When a program errors, all runs must raise
the same error class.

The corpus is deterministic under a fixed seed.  Budget knobs:

- ``REPRO_FUZZ_PROGRAMS`` — corpus size (default 200; CI smoke uses a
  smaller budget, long fuzz runs a larger one),
- ``REPRO_FUZZ_SEED`` — base seed.

Both are read by ``tests/fuzz_budget.py``.
"""

import random

import pytest

from fuzz_budget import fuzz_budget
from oracles import SIMULATORS
from oracles.interpreter import const_value
from repro.hdl import current_context
from repro.hdl.compile import clear_program_cache, program_cache_stats
from repro.hdl.elaborate import elaborate
from repro.hdl.errors import HdlError
from repro.hdl.eval import fold
from repro.hdl.parser import parse_source_cached

N_PROGRAMS, BASE_SEED = fuzz_budget()
MAX_TIME = 100_000
MAX_STMTS = 400_000

# Aggregated across the parametrized cases; checked by the meta test.
_corpus_outcomes: dict[int, tuple[bool, bool]] = {}


# ----------------------------------------------------------------------
# Program generator
# ----------------------------------------------------------------------
class ProgramGen:
    """Random-but-valid Verilog programs over the supported subset."""

    UNOPS = ("~", "-", "&", "|", "^", "!", "~&", "~|")
    BINOPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
              "==", "!=", "<", "<=", ">", ">=", "&&", "||", "===", "!==")
    WIDTHS = (1, 2, 3, 4, 8)
    # Context-determined operators, which lower a left-deep run of them
    # in one loop.
    CHAIN_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "^~")

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self, width: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            # Binary literal, sometimes with x/z digits (z reads as x).
            digits = "".join(
                rng.choice("xz") if rng.random() < 0.25 else rng.choice("01")
                for _ in range(width))
            return f"{width}'b{digits}"
        if roll < 0.65:
            return f"{width}'d{rng.randrange(1 << min(width, 16))}"
        return f"{width}'h{rng.randrange(1 << min(width, 16)):x}"

    def expr(self, nets: list[tuple[str, int]], depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            if nets and rng.random() < 0.65:
                name, width = rng.choice(nets)
                roll = rng.random()
                if roll < 0.15 and width > 1:
                    return f"{name}[{rng.randrange(width)}]"
                if roll < 0.3 and width > 2:
                    lsb = rng.randrange(width - 1)
                    msb = rng.randrange(lsb, width)
                    return f"{name}[{msb}:{lsb}]"
                return name
            return self.literal(rng.choice(self.WIDTHS))
        roll = rng.random()
        if roll < 0.15:
            return f"({rng.choice(self.UNOPS)} {self.expr(nets, depth - 1)})"
        if roll < 0.7:
            return (f"({self.expr(nets, depth - 1)} {rng.choice(self.BINOPS)}"
                    f" {self.expr(nets, depth - 1)})")
        if roll < 0.82:
            return (f"({self.expr(nets, depth - 1)} ?"
                    f" {self.expr(nets, depth - 1)} :"
                    f" {self.expr(nets, depth - 1)})")
        if roll < 0.94:
            parts = ", ".join(self.expr(nets, depth - 1)
                              for _ in range(rng.randrange(2, 4)))
            return f"{{{parts}}}"
        return f"{{{rng.randrange(1, 4)}{{{self.expr(nets, 0)}}}}}"


def generate_program(seed: int) -> str:
    rng = random.Random(seed)
    g = ProgramGen(rng)
    lines: list[str] = []

    # Hierarchy: a child module combining its inputs combinationally.
    use_child = rng.random() < 0.6
    child_w = rng.choice((2, 4, 8))
    if use_child:
        body = g.expr([("a", child_w), ("b", child_w)], 2)
        lines += [
            f"module child(input [{child_w - 1}:0] a,"
            f" input [{child_w - 1}:0] b,"
            f" output [{child_w - 1}:0] y);",
            f"    assign y = {body};",
            "endmodule",
            "",
        ]

    lines.append("module tb;")
    lines.append("    reg clk;")
    lines.append("    integer i;")

    regs: list[tuple[str, int]] = []
    for index in range(rng.randrange(2, 5)):
        width = rng.choice(g.WIDTHS)
        signed = "signed " if rng.random() < 0.25 else ""
        name = f"r{index}"
        lines.append(f"    reg {signed}[{width - 1}:0] {name};")
        regs.append((name, width))

    readable = list(regs)
    for index in range(rng.randrange(1, 4)):
        width = rng.choice(g.WIDTHS)
        name = f"w{index}"
        lines.append(f"    wire [{width - 1}:0] {name} ="
                     f" {g.expr(readable, 2)};")
        readable.append((name, width))

    if use_child:
        lines.append(f"    wire [{child_w - 1}:0] cy;")
        if rng.random() < 0.5 and len(regs) >= 2:
            # Net-aliased ports: plain identifiers of matching width
            # when available, otherwise expressions.
            a_expr = g.expr(readable, 1)
            b_expr = g.expr(readable, 1)
        else:
            a_expr = g.expr(readable, 1)
            b_expr = g.literal(child_w)
        lines.append(f"    child c0(.a({a_expr}), .b({b_expr}), .y(cy));")
        readable.append(("cy", child_w))

    # Clocked state register.
    q_w = rng.choice((2, 4, 8))
    lines.append(f"    reg [{q_w - 1}:0] q;")
    edge = rng.choice(("posedge", "negedge"))
    if rng.random() < 0.5:
        lines.append(f"    always @({edge} clk) q <= {g.expr(readable, 2)};")
    else:
        lines.append(f"    always @({edge} clk) begin")
        lines.append(f"        if ({g.expr(readable, 1)})"
                     f" q <= {g.expr(readable, 2)};")
        lines.append(f"        else q <= {g.expr(readable, 1)};")
        lines.append("    end")
    sampled = readable + [("q", q_w)]

    # Combinational case block.
    m_w = rng.choice((2, 4, 8))
    lines.append(f"    reg [{m_w - 1}:0] m;")
    subj_name, subj_w = rng.choice(regs)
    case_kind = rng.choice(("case", "casez", "casex"))
    lines.append("    always @(*) begin")
    lines.append(f"        {case_kind} ({subj_name})")
    for _ in range(rng.randrange(1, 4)):
        lines.append(f"            {g.literal(subj_w)}:"
                     f" m = {g.expr(sampled, 1)};")
    lines.append(f"            default: m = {g.expr(sampled, 1)};")
    lines.append("        endcase")
    lines.append("    end")
    observable = sampled + [("m", m_w)]

    # Optional memory exercised from the driver.
    use_mem = rng.random() < 0.4
    if use_mem:
        mem_w = rng.choice((4, 8))
        lines.append(f"    reg [{mem_w - 1}:0] mem [0:7];")

    # Clock generator.
    half = rng.randrange(1, 6)
    lines.append("    initial begin clk = 0;"
                 f" forever #{half} clk = ~clk; end")

    # Driver.
    fmt = " ".join(f"{name}=%b" for name, _ in observable)
    args = ", ".join(name for name, _ in observable)
    use_dump = rng.random() < 0.5
    if use_dump:
        lines.append("    integer fd;")
    lines.append("    initial begin")
    if use_dump:
        lines.append('        fd = $fopen("dump.txt");')
    dump = f'        $fdisplay(fd, "{fmt}", {args});'
    for name, width in regs:
        lines.append(f"        {name} = {g.literal(width)};")
    if use_mem:
        lines.append("        for (i = 0; i < 8; i = i + 1)"
                     f" mem[i] = {g.expr(sampled, 1)};")
    steps: list[list[str]] = []
    for step in range(rng.randrange(2, 6)):
        if rng.random() < 0.55:
            lines.append(f"        #{rng.randrange(1, 15)};")
        else:
            lines.append(
                f"        @({rng.choice(('posedge', 'negedge'))} clk);")
        name, _ = rng.choice(regs)
        block = [f"        {name} = {g.expr(sampled, 2)};"]
        if rng.random() < 0.4:
            other, other_w = rng.choice(regs)
            block.append(f"        {other} = {g.literal(other_w)};")
        block.append(f'        $display("s{step}: {fmt}", {args});')
        if use_dump:
            block.append(dump)
        steps.append(block)
        lines += block
    if rng.random() < 0.5:
        # A whole earlier step again, statement for statement.
        lines.append(f"        #{rng.randrange(1, 15)};")
        lines += rng.choice(steps)
    loop_roll = rng.random()
    target, target_w = rng.choice(regs)
    if loop_roll < 0.33:
        lines.append(f"        for (i = 0; i < {rng.randrange(2, 7)};"
                     " i = i + 1)")
        lines.append(f"            {target} = {target} + i[{target_w - 1}:0];")
    elif loop_roll < 0.66:
        lines.append(f"        repeat ({rng.randrange(2, 6)})"
                     f" {target} = {g.expr(sampled, 1)};")
    if use_mem:
        lines.append('        $display("mem %b %b", mem[2], mem[5]);')
    # Leaf sharing: one line reading a net and a constant many times,
    # partly in a left-deep operator run, printed twice.
    name, width = rng.choice(sampled)
    const = g.literal(width)
    terms = [rng.choice((name, const, g.expr(sampled, 0)))
             for _ in range(rng.randrange(3, 9))]
    chain = terms[0] + "".join(
        f" {rng.choice(g.CHAIN_OPS)} {term}" for term in terms[1:])
    repeated = (f'        $display("rep: %d %b %d", {chain},'
                f" {{{name}, {const}, {name}}}, {name} + {const});")
    lines += [repeated, repeated]
    lines.append(f'        #1 $display("end: {fmt} t=%0t", {args}, $time);')
    lines.append("        $finish;")
    lines.append("    end")
    lines.append("endmodule")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution + comparison
# ----------------------------------------------------------------------
def snapshot(result) -> dict:
    design = result.design
    return {
        "finished": result.finished,
        "sim_time": result.sim_time,
        "stdout": list(result.stdout),
        "files": {name: list(lines) for name, lines in result.files.items()},
        "signals": {name: sig.value.bits()
                    for name, sig in design.signals.items()},
        "memories": {name: [word.bits() for word in mem.words]
                     for name, mem in design.memories.items()},
    }


WRAPPER = "fuzz_wrap"
WRAPPED_PREFIX = "inner."


def wrap_program(src: str) -> str:
    """The program as the single instance of another top module."""
    return f"{src}\n\nmodule {WRAPPER};\n    tb inner();\nendmodule"


def unwrap(outcome):
    """A wrapped run's outcome with the instance prefix stripped."""
    if isinstance(outcome, tuple):
        return outcome
    strip = len(WRAPPED_PREFIX)
    for key in ("signals", "memories"):
        assert all(name.startswith(WRAPPED_PREFIX) for name in outcome[key])
        outcome[key] = {name[strip:]: value
                        for name, value in outcome[key].items()}
    return outcome


def run_engine(src: str, engine: str, top: str = "tb"):
    try:
        return snapshot(SIMULATORS[engine](src, top, max_time=MAX_TIME,
                                           max_stmts=MAX_STMTS))
    except HdlError as exc:
        return ("error", type(exc).__name__)


def seed_for(index: int) -> int:
    return (BASE_SEED << 20) + index


@pytest.mark.parametrize("index", range(N_PROGRAMS))
def test_differential_fuzz(index):
    src = generate_program(seed_for(index))

    interp = run_engine(src, "interpret")

    clear_program_cache()
    fresh = run_engine(src, "compiled")

    before = program_cache_stats()
    rebound = run_engine(src, "compiled")
    after = program_cache_stats()

    wrapped = wrap_program(src)
    shared = unwrap(run_engine(wrapped, "compiled", WRAPPER))
    after_wrapped = program_cache_stats()
    clear_program_cache()
    cold = unwrap(run_engine(wrapped, "compiled", WRAPPER))

    assert fresh == rebound, "fresh-compile vs shared-rebind divergence"
    assert interp == fresh, "interpreter vs compiled divergence"
    assert shared == cold, "cross-source sharing vs cold compile divergence"
    assert cold == fresh, "wrapped vs unwrapped divergence"
    ok = not (isinstance(interp, tuple) and interp[0] == "error")
    if ok:
        assert after["programs_shared"] > before["programs_shared"], \
            "second compiled run did not reuse shared programs"
        assert after_wrapped["programs_shared"] > after["programs_shared"], \
            "wrapped run did not reuse the unwrapped run's programs"
    _corpus_outcomes[index] = (ok, ok and bool(interp["stdout"]))


def test_generator_is_deterministic():
    seed = seed_for(0)
    assert generate_program(seed) == generate_program(seed)
    assert generate_program(seed) != generate_program(seed + 1)


def test_corpus_not_vacuous():
    """Meta-check: the corpus genuinely exercises the simulator.

    Runs after the parametrized cases; skipped when they were filtered
    out (e.g. ``-k``).
    """
    if len(_corpus_outcomes) < N_PROGRAMS:
        pytest.skip("fuzz corpus did not run in full")
    finished = sum(1 for ok, _ in _corpus_outcomes.values() if ok)
    printed = sum(1 for _, out in _corpus_outcomes.values() if out)
    assert finished >= 0.9 * N_PROGRAMS, \
        f"only {finished}/{N_PROGRAMS} fuzz programs ran cleanly"
    assert printed >= 0.9 * N_PROGRAMS


# ----------------------------------------------------------------------
# Constant folding vs the reference constant evaluator
# ----------------------------------------------------------------------
# The runtime folds elaboration-time constants through compiled closures
# (``repro.hdl.eval.fold``); the interpreter shares that elaboration, so
# the programs above never compare a folded value with the reference
# evaluator.  Here random expressions over three names, each a
# ``localparam`` or an initialised ``reg``, are folded and evaluated by
# the oracle's constant evaluator in the same elaborated scope: an
# expression over parameters must give the same value, one that reads a
# reg the same "not a constant" error.
_N_FOLD_CASES = max(8, N_PROGRAMS // 4)

# Per fold case, the kind of each compared outcome; checked by the meta
# test.
_fold_outcomes: dict[int, list[str]] = {}


def generate_fold_case(seed: int) -> str:
    rng = random.Random(seed)
    g = ProgramGen(rng)
    names = [(f"r{index}", rng.choice(g.WIDTHS)) for index in range(3)]
    lines = ["module tb;"]
    for name, width in names:
        if rng.random() < 0.5:
            lines.append(f"    localparam {name} = {g.literal(width)};")
            continue
        signed = "signed " if rng.random() < 0.25 else ""
        lines.append(f"    reg {signed}[{width - 1}:0] {name} ="
                     f" {g.literal(width)};")
    # A part-select bound nested in a ternary branch under a comparison,
    # where lowering defers its errors: a bound that reads a reg is
    # rejected whichever branch is selected, and so is a reg read behind
    # an x-valued bound, which fails the comparison's sizing before the
    # part select itself lowers.
    lines.append(rng.choice(("    localparam s = 0;",
                             "    reg [3:0] s = 4'd0;",
                             "    localparam s = 4'bx011;")))
    exprs = [g.expr(names, 3) for _ in range(8)]
    exprs.append(f"({g.expr(names, 1)} ? {g.expr(names, 1)} :"
                 f" (1 == {rng.choice(names)[0]}[s:0]))")
    # Two reads behind that bound, or a read and a runtime hook: the
    # error names the first in walk order on both sides.
    second = rng.choice([name for name, _ in names] + ["$random", "$time"])
    exprs.append(f"({g.expr(names, 1)} ? {g.expr(names, 1)} :"
                 f" (1 == {rng.choice(names)[0]}[s:0] + {second}))")
    lines += [f'    initial $display("", {", ".join(exprs)});',
              "endmodule"]
    return "\n".join(lines)


def _value_or_error(evaluate, expr, scope):
    try:
        value = evaluate(expr, scope)
    except HdlError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (value.width, value.val, value.xmask)


@pytest.mark.parametrize("index", range(_N_FOLD_CASES))
def test_fold_matches_the_reference_evaluator(index):
    design = elaborate(parse_source_cached(
        generate_fold_case(seed_for(index))), "tb")
    (spec,) = design.processes
    kinds = []
    for expr in spec.body.args[1:]:
        folded = _value_or_error(fold, expr, spec.scope)
        assert folded == _value_or_error(const_value, expr, spec.scope), expr
        if folded[0] != "error":
            kinds.append("value")
        elif folded[2].endswith("is not a constant"):
            kinds.append("not_constant")
        else:
            kinds.append("other_error")
    _fold_outcomes[index] = kinds


def test_fold_cases_compare_values_and_errors():
    """Meta-check: values and "not a constant" errors each make up at
    least a tenth of the compared expressions."""
    if len(_fold_outcomes) < _N_FOLD_CASES:
        pytest.skip("fold cases did not run in full")
    kinds = [kind for case in _fold_outcomes.values() for kind in case]
    for kind in ("value", "not_constant"):
        assert kinds.count(kind) >= len(kinds) / 10, (kind, len(kinds))


# ----------------------------------------------------------------------
# Lockstep-vs-per-mutant sweep battery
# ----------------------------------------------------------------------
# The lockstep union sweep must be observationally identical to N
# separate per-mutant runs (``_per_mutant_sweep``, lockstep's fallback
# path): per-lane statuses, dump records and retire rounds.  A seeded
# generator produces codegen-style drivers (dump ``$fdisplay``
# check-points) paired with small DUTs; mutants come from the real
# mutation operators, so every sweep compares the two paths on
# the shapes production sweeps actually take.  The budget scales with
# REPRO_FUZZ_PROGRAMS (each sweep simulates ~7 lanes twice).
_N_SWEEPS = max(8, N_PROGRAMS // 10)
_SWEEP_SEED_SPACE = 1 << 16
_N_MUTANTS = 5

_sweep_engines: dict[int, str] = {}


def generate_sweep_case(seed: int) -> tuple[str, str]:
    """A (driver, DUT) pair in the codegen dump style."""
    rng = random.Random(seed)
    g = ProgramGen(rng)
    width = rng.choice((2, 4, 8))
    sequential = rng.random() < 0.5
    two_outputs = rng.random() < 0.4

    # DUT: comb function of (a, b), optionally registered on clk.
    nets = [("a", width), ("b", width)]
    body = []
    if sequential:
        nets.append(("acc", width))
        body += [
            f"    reg [{width - 1}:0] acc;",
            "    always @(posedge clk)"
            f" acc <= {g.expr(nets, 2)};",
            "    assign y = acc;",
        ]
    else:
        body.append(f"    assign y = {g.expr(nets, 2)};")
    out_decls = f"output [{width - 1}:0] y"
    if two_outputs:
        out_decls += ", output z"
        body.append(f"    assign z = {g.expr(nets, 1)};")
    dut = "\n".join([
        f"module top_module(input clk, input [{width - 1}:0] a,"
        f" input [{width - 1}:0] b, {out_decls});",
        *body,
        "endmodule",
    ])

    # Driver: codegen-style stimulus + dump $fdisplay check-points.
    spec = rng.choice(("%d", "%d", "%d", "%b", "%h"))
    # (label, format, argument); ``s`` reads a DUT output twice beside
    # a constant, so every lane's rename is shared within the line, and
    # ``t`` reads it inside a system call.
    fields = [("a", "%d", "a"), ("b", "%d", "b"), ("y", spec, "y"),
              ("s", "%d", "y + y + 1"), ("t", "%d", "$signed(y)")]
    conns = [".clk(clk)", ".a(a)", ".b(b)", ".y(y)"]
    extra_decl = ""
    if two_outputs:
        fields.append(("z", "%d", "z"))
        conns.append(".z(z)")
        extra_decl = "    wire z;\n"
    fmt = "scenario: %d, " + ", ".join(
        f"{name} = {fs}" for name, fs, _ in fields)
    args = ", ".join(arg for _, _, arg in fields)
    lines = [
        "module tb();",
        "    reg clk;",
        f"    reg [{width - 1}:0] a;",
        f"    reg [{width - 1}:0] b;",
        f"    wire [{width - 1}:0] y;",
        extra_decl + "    integer file;",
        "    integer scenario;",
        f"    top_module dut({', '.join(conns)});",
        "    always #5 clk = ~clk;",
        "    initial begin",
        '        file = $fopen("results.txt");',
        "        clk = 0;",
        "        scenario = 0;",
    ]
    for _ in range(rng.randrange(3, 7)):
        lines.append(f"        a = {g.literal(width)};"
                     f" b = {g.literal(width)};")
        lines.append("        @(posedge clk); #1;")
        lines.append("        scenario = scenario + 1;")
        lines.append(f'        $fdisplay(file, "{fmt}",'
                     f" scenario, {args});")
    lines += ["        $finish;", "    end", "endmodule"]
    return "\n".join(lines), dut


def sweep_seed_for(index: int) -> int:
    return (BASE_SEED << 20) + _SWEEP_SEED_SPACE + index


@pytest.mark.parametrize("index", range(_N_SWEEPS))
def test_lockstep_sweep_matches_per_mutant(index):
    from repro.core.simulation import (_per_mutant_sweep, run_driver,
                                       run_mutant_sweep)
    from repro.mutation import generate_mutants

    seed = sweep_seed_for(index)
    driver, dut = generate_sweep_case(seed)
    mutants = [mutant.source
               for mutant in generate_mutants(dut, _N_MUTANTS, seed)]
    # A copy of one mutant that differs only in trivia: both sweeps
    # give it its original's lane, and a run of its own must agree.
    copy = "// trivia-only copy\n" + mutants[0].replace("\n", "\n  ")
    mutants.append(copy)

    lockstep = run_mutant_sweep(driver, mutants, golden_src=dut)
    per_mutant = _per_mutant_sweep(driver, mutants, dut,
                                   current_context())

    assert per_mutant.engine == "per-mutant"
    for k, (ls_run, pm_run) in enumerate(zip(lockstep.runs,
                                             per_mutant.runs)):
        assert ls_run.status == pm_run.status, f"lane {k} status"
        assert ls_run.records == pm_run.records, f"lane {k} records"
    if per_mutant.golden.ok:
        assert lockstep.golden.records == per_mutant.golden.records
    else:
        assert lockstep.golden.status == per_mutant.golden.status
    assert lockstep.retire_rounds == per_mutant.retire_rounds
    alone = run_driver(driver, copy)
    assert lockstep.runs[-1].status == alone.status, "trivia copy status"
    assert lockstep.runs[-1].records == alone.records, "trivia copy records"
    _sweep_engines[index] = lockstep.engine


def test_sweep_generator_is_deterministic():
    seed = sweep_seed_for(0)
    assert generate_sweep_case(seed) == generate_sweep_case(seed)
    assert generate_sweep_case(seed) != generate_sweep_case(seed + 1)


def test_sweep_corpus_not_vacuous():
    """Most sweeps must genuinely run lockstep — a battery that always
    falls back to per-mutant proves nothing."""
    if len(_sweep_engines) < _N_SWEEPS:
        pytest.skip("sweep corpus did not run in full")
    locksteps = sum(1 for engine in _sweep_engines.values()
                    if engine == "lockstep")
    assert locksteps >= 0.7 * _N_SWEEPS, \
        f"only {locksteps}/{_N_SWEEPS} sweeps ran lockstep"
