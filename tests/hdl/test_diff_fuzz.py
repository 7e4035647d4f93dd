"""Differential fuzzing: random HDL programs through every execution path.

A seeded generator produces small valid-by-construction programs
covering the supported surface — procedural blocks (delays, event
controls, loops, case/ternary), combinational logic (continuous
assigns, ``always @(*)`` case blocks), hierarchy (a child module
instance, both net-aliased and expression-bound ports), 4-state
``x``/``z`` literals, memories and ``$display`` formatting.  Each
program is executed four ways:

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
"""

import random

import pytest

from oracles import SIMULATORS
from repro.hdl import current_context
from repro.hdl.compile import clear_program_cache, program_cache_stats
from repro.hdl.errors import HdlError

# Budget knobs ride on the root SimContext (seeded from
# REPRO_FUZZ_PROGRAMS / REPRO_FUZZ_SEED at import).
N_PROGRAMS = current_context().fuzz_programs
BASE_SEED = current_context().fuzz_seed
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
    lines.append("    initial begin")
    for name, width in regs:
        lines.append(f"        {name} = {g.literal(width)};")
    if use_mem:
        lines.append("        for (i = 0; i < 8; i = i + 1)"
                     f" mem[i] = {g.expr(sampled, 1)};")
    for step in range(rng.randrange(2, 6)):
        if rng.random() < 0.55:
            lines.append(f"        #{rng.randrange(1, 15)};")
        else:
            lines.append(
                f"        @({rng.choice(('posedge', 'negedge'))} clk);")
        name, _ = rng.choice(regs)
        lines.append(f"        {name} = {g.expr(sampled, 2)};")
        if rng.random() < 0.4:
            other, other_w = rng.choice(regs)
            lines.append(f"        {other} = {g.literal(other_w)};")
        lines.append(f'        $display("s{step}: {fmt}", {args});')
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
    fields = [("a", "%d"), ("b", "%d"), ("y", spec)]
    conns = [".clk(clk)", ".a(a)", ".b(b)", ".y(y)"]
    extra_decl = ""
    if two_outputs:
        fields.append(("z", "%d"))
        conns.append(".z(z)")
        extra_decl = "    wire z;\n"
    fmt = "scenario: %d, " + ", ".join(
        f"{name} = {fs}" for name, fs in fields)
    args = ", ".join(name for name, _ in fields)
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
    from repro.core.simulation import _per_mutant_sweep, run_mutant_sweep
    from repro.mutation import generate_mutants

    seed = sweep_seed_for(index)
    driver, dut = generate_sweep_case(seed)
    mutants = [mutant.source
               for mutant in generate_mutants(dut, _N_MUTANTS, seed)]

    lockstep = run_mutant_sweep(driver, mutants, golden_src=dut)
    per_mutant = _per_mutant_sweep(driver, mutants, dut, None,
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
