"""Substrate micro-benchmarks: parser and simulator throughput.

Not a paper experiment — these keep the simulator honest as the repo
evolves, since every paper experiment sits on thousands of these runs.

Two modes:

- ``pytest benchmarks/bench_hdl_simulator.py --benchmark-only`` runs the
  pytest-benchmark suite (steady-state numbers, caches warm);
- ``python benchmarks/bench_hdl_simulator.py [--quick] [--record]``
  times the compiled simulator against the reference interpreter (the
  test oracle in ``tests/oracles/``) and the batched-vs-serial
  validator path end-to-end (cold caches), prints a report, and with
  ``--record`` refreshes ``benchmarks/BENCH_simulator.json`` so future
  PRs have a perf trajectory to compare against.
"""

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import repro.core.simulation as simulation
from repro.codegen import render_checker_core, render_driver
from repro.codegen.driver import DriverFaults
from repro.core.checker_runtime import run_checker
from repro.core.simulation import (_per_mutant_sweep,
                                   clear_simulation_caches,
                                   clear_template_caches, run_driver,
                                   run_driver_batch, run_mutant_sweep)
from repro.hdl.compile import clear_program_cache
from repro.core.validator import ScenarioValidator
from repro.hdl import current_context, parse_source, simulate, use_context
from repro.llm.base import MeteredClient, UsageMeter
from repro.llm.profiles import get_profile
from repro.llm.synthetic import SyntheticLLM
from repro.mutation import generate_mutants
from repro.problems import get_task

# The reference interpreter and lexer are test oracles, not runtime code.
sys.path.insert(0, str(Path(__file__).parents[1] / "tests"))
from oracles import (InterpretedSimulator, reference_tokenize,  # noqa: E402
                     simulate_interpreted)

BENCH_JSON = Path(__file__).parent / "BENCH_simulator.json"

# Numbers measured on the seed commit (pure interpreter, no caches) on
# the reference container; kept here so speedups are always reported
# against the same origin.  ``parse_small_tb_ms`` is the pre-master-regex
# front end (char-at-a-time lexer + level-cascade expression parser) on
# the COUNTER_TB source, measured immediately before the lexer rewrite.
SEED_BASELINE = {
    "counter_ms": 10.09,
    "tier1_suite_s": 85.9,
    "parse_small_tb_ms": 1.12,
}

# ``bench_runaway`` measured on the commit before periodic-state
# fast-forward (same container as the recorded numbers).
PRE_FAST_FORWARD_RUNAWAY_MS = 468.0

COUNTER_TB = """
module top_module (input clk, input reset, output reg [7:0] q);
always @(posedge clk) begin
    if (reset) q <= 8'd0;
    else q <= q + 8'd1;
end
endmodule

module tb;
    reg clk, reset;
    wire [7:0] q;
    integer i;
    top_module dut(.clk(clk), .reset(reset), .q(q));
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        reset = 1;
        @(posedge clk); #1;
        reset = 0;
        for (i = 0; i < 200; i = i + 1) begin
            @(posedge clk); #1;
        end
        $display("q=%d", q);
        $finish;
    end
endmodule
"""


def test_parse_throughput(benchmark):
    source = get_task("cmb_alu8").golden_rtl()
    result = benchmark(parse_source, source)
    assert result.modules


def test_simulate_200_cycle_counter(benchmark):
    result = benchmark(simulate, COUNTER_TB, "tb")
    assert result.stdout == ["q=200"]


def test_simulate_200_cycle_counter_interpreted(benchmark):
    result = benchmark(simulate_interpreted, COUNTER_TB, "tb")
    assert result.stdout == ["q=200"]


def test_full_tb_run_and_check(benchmark):
    task = get_task("seq_count8_en")
    plan = task.canonical_scenarios()
    driver = render_driver(task, plan)
    checker = render_checker_core(task)
    rtl = task.golden_rtl()

    def run_and_check():
        run = run_driver(driver, rtl)
        return run_checker(checker, task.ports, run.records)

    report = benchmark(run_and_check)
    assert report.all_passed


def test_run_driver_batch_mutants(benchmark):
    """Steady-state batched sweep: one driver, ten mutant DUTs."""
    task = get_task("seq_count8_en")
    driver = render_driver(task, task.canonical_scenarios())
    mutants = [m.source for m in generate_mutants(
        task.golden_rtl(), 10, task.task_id)]

    # jobs=1 pinned: this measures the warm in-process batch path, not
    # pool fan-out, regardless of any REPRO_JOBS in the environment.
    runs = benchmark(run_driver_batch, driver, mutants, jobs=1)
    assert len(runs) == 10


def test_mutant_sweep_lockstep(benchmark):
    """Steady-state lockstep sweep: 20 mutants + golden lane, one run."""
    task = get_task("seq_count8_en")
    driver = render_driver(task, task.canonical_scenarios())
    golden = task.golden_rtl()
    mutants = [m.source for m in generate_mutants(
        golden, 20, task.task_id)]

    sweep = benchmark(run_mutant_sweep, driver, mutants,
                      golden_src=golden)
    assert sweep.engine == "lockstep", sweep.fallback_reason
    assert len(sweep.runs) == 20


def test_parse_throughput_reference_lexer(benchmark):
    source = get_task("cmb_alu8").golden_rtl()
    result = benchmark(reference_tokenize, source)
    assert result[-1].text == ""


# ----------------------------------------------------------------------
# Cold-path engine comparison (script mode)
# ----------------------------------------------------------------------
def _time_repeated(fn, min_seconds: float, min_rounds: int = 3) -> float:
    """Best-of wall time per call, at least ``min_rounds`` calls."""
    best = float("inf")
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        rounds += 1
    return best


def bench_parse(seconds: float) -> dict:
    """Front-end cost: master-regex tokenizer vs reference, plus the
    full cold parse (lexer + recursive-descent parser, caches bypassed).

    ``lexer_speedup`` is a same-run, same-machine ratio — the CI floor
    gates on it.  ``parse_speedup_vs_seed`` compares the recorded
    pre-rewrite front end and is only meaningful on the reference
    container, so it never gates quick runs.
    """
    from repro.hdl.lexer import tokenize
    from repro.hdl.parser import parse_source as parse_uncached

    sources = {
        "small_tb": COUNTER_TB,
        "alu8_rtl": get_task("cmb_alu8").golden_rtl(),
    }
    out = {}
    for name, src in sources.items():
        master = _time_repeated(lambda: tokenize(src), seconds)
        reference = _time_repeated(lambda: reference_tokenize(src),
                                   seconds)
        cold_parse = _time_repeated(lambda: parse_uncached(src), seconds)
        out[name] = {
            "tokenize_master_ms": master * 1000,
            "tokenize_reference_ms": reference * 1000,
            "lexer_speedup": reference / master,
            "parse_source_cold_ms": cold_parse * 1000,
        }
    out["small_tb"]["parse_speedup_vs_seed"] = (
        SEED_BASELINE["parse_small_tb_ms"]
        / out["small_tb"]["parse_source_cold_ms"])
    return out


def bench_counter(seconds: float) -> dict:
    out = {}
    for engine, run_sim in (("interpret", simulate_interpreted),
                            ("compiled", simulate)):
        def run(_run_sim=run_sim):
            result = _run_sim(COUNTER_TB, "tb")
            assert result.stdout == ["q=200"]
        out[engine] = _time_repeated(run, seconds) * 1000
    out["speedup_compiled_vs_interpret"] = (
        out["interpret"] / out["compiled"])
    out["speedup_vs_seed"] = SEED_BASELINE["counter_ms"] / out["compiled"]
    return out


def bench_runaway(seconds: float, task_id: str = "seq_div8_tick") -> dict:
    """One ``DriverRun`` of a driver that forgot ``clk = 0`` against the
    golden DUT: the clock ticks ``x`` until ``max_time`` fires (the
    campaign's runaway shape).  Caches are warm, so this is kernel time.
    ``before_fast_forward_ms`` is the same run recorded before the
    kernel learned to skip periodic states.
    """
    task = get_task(task_id)
    driver = render_driver(task, task.canonical_scenarios(),
                           DriverFaults(missing_clock_init=True))
    dut = task.golden_rtl()

    def run():
        assert run_driver(driver, dut).detail.startswith(
            "simulation exceeded max_time=")

    run()
    ms = _time_repeated(run, seconds) * 1000
    return {
        "compiled": ms,
        "before_fast_forward_ms": PRE_FAST_FORWARD_RUNAWAY_MS,
        "speedup_vs_before": PRE_FAST_FORWARD_RUNAWAY_MS / ms,
    }


def _build_validator(task_id: str, group_size: int = 20):
    task = get_task(task_id)
    profile = get_profile("gpt-4o")
    client = MeteredClient(SyntheticLLM(profile, seed=990), UsageMeter())
    validator = ScenarioValidator(client, task, group_size=group_size)
    validator.rtl_group  # force judge-group generation outside timing
    plan = task.canonical_scenarios()
    from repro.core.artifacts import HybridTestbench
    tb = HybridTestbench(
        task_id=task.task_id,
        driver_src=render_driver(task, plan),
        checker_src=render_checker_core(task),
        scenarios=tuple((s.index, s.description) for s in plan),
        origin="bench")
    return validator, tb


@contextmanager
def _interpreted_pipeline():
    """Run every pipeline simulation through the reference interpreter."""
    original = simulation.Simulator
    simulation.Simulator = InterpretedSimulator
    try:
        yield
    finally:
        simulation.Simulator = original


def bench_validator_matrix(seconds: float, task_id: str = "seq_count8_en",
                           group_size: int = 20) -> dict:
    """End-to-end 20-sample R/S matrix builds (the acceptance scenario).

    ``seed_style_ms`` re-parses/re-elaborates/interprets every judge run
    on every validate — the seed's cost model, paid on *every* matrix
    build.  The batched path is reported twice: ``cold_first_ms`` (first
    validate of a fresh driver: everything compiles once) and
    ``steady_state_ms`` (what correction loops, criteria studies and
    AutoEval reruns pay once the design templates are compiled).
    """
    validator, tb = _build_validator(task_id, group_size)
    out = {}
    # Seed cost model: interpreter, no surviving caches.
    with _interpreted_pipeline():

        def seed_style():
            clear_simulation_caches()
            validator._sim_cache.clear()
            report = validator.validate(tb)
            assert report.matrix is not None
        out["seed_style_ms"] = _time_repeated(seed_style, seconds) * 1000

    # Batched path, compiled programs.
    clear_simulation_caches()
    validator._sim_cache.clear()
    t0 = time.perf_counter()
    validator.validate(tb)
    out["cold_first_ms"] = (time.perf_counter() - t0) * 1000
    # One warm validate so steady state measures pure template reuse.
    validator._sim_cache.clear()
    validator.validate(tb)

    def steady():
        validator._sim_cache.clear()
        report = validator.validate(tb)
        assert report.matrix is not None
    out["steady_state_ms"] = _time_repeated(steady, seconds) * 1000
    out["speedup_steady_vs_seed_style"] = (
        out["seed_style_ms"] / out["steady_state_ms"])
    out["speedup_cold_vs_seed_style"] = (
        out["seed_style_ms"] / out["cold_first_ms"])
    return out


def bench_batch_vs_serial(seconds: float,
                          task_id: str = "seq_count8_en") -> dict:
    """Warm-path sweep of one driver over ten mutants: batch vs loop."""
    task = get_task(task_id)
    driver = render_driver(task, task.canonical_scenarios())
    mutants = [m.source for m in generate_mutants(
        task.golden_rtl(), 10, task.task_id)]

    def serial():
        for mutant in mutants:
            run_driver(driver, mutant)

    def batched():
        # jobs=1 pinned: the comparison is batch dedup/template reuse
        # vs a plain loop, so pool fan-out (context jobs / REPRO_JOBS)
        # must not leak into the measurement.
        run_driver_batch(driver, mutants, jobs=1)

    # Warm the caches once so both paths measure steady state.
    batched()
    return {
        "serial_ms": _time_repeated(serial, seconds) * 1000,
        "batch_ms": _time_repeated(batched, seconds) * 1000,
    }


def bench_driver_reuse(seconds: float, task_id: str = "seq_count8_en",
                       n_variants: int = 10) -> dict:
    """Cross-design driver reuse: the slot-program cold-start win.

    One driver paired with ``n_variants`` distinct DUT designs:

    - ``pair_cold_ms`` — first simulation of each fresh pair with the
      shared-program cache cleared per pair (the PR-1 cost model, where
      every new pairing recompiled the driver's closures);
    - ``pair_shared_ms`` — first simulation of each fresh pair with the
      program cache warm: only elaboration + slot binding remains;
    - ``steady_same_ms`` / ``steady_cross_ms`` — per-run template-cached
      cost of rerunning one pair vs cycling across all pairs.  The
      acceptance bar is parity (``steady_cross_vs_same`` ~ 1.0): once
      bound, a cross-design sweep costs the same per run as hammering a
      single design.
    """
    task = get_task(task_id)
    driver = render_driver(task, task.canonical_scenarios())
    variants = [m.source for m in generate_mutants(
        task.golden_rtl(), n_variants, task.task_id)]

    def cold_pairs():
        # Fresh templates AND fresh programs for every pairing.
        clear_simulation_caches()
        for dut in variants:
            clear_program_cache()
            run_driver(driver, dut)

    def shared_pairs():
        # Fresh templates, warm shared programs: pure bind cost.
        clear_template_caches()
        for dut in variants:
            run_driver(driver, dut)

    out = {}
    out["pair_cold_ms"] = (_time_repeated(cold_pairs, seconds)
                           * 1000 / n_variants)
    clear_simulation_caches()
    shared_pairs()  # warm the program cache once
    out["pair_shared_ms"] = (_time_repeated(shared_pairs, seconds)
                             * 1000 / n_variants)
    out["cold_start_speedup"] = out["pair_cold_ms"] / out["pair_shared_ms"]

    def steady_same():
        for _ in range(n_variants):
            run_driver(driver, variants[0])

    def steady_cross():
        for dut in variants:
            run_driver(driver, dut)

    steady_cross()  # warm every template
    out["steady_same_ms"] = (_time_repeated(steady_same, seconds)
                             * 1000 / n_variants)
    out["steady_cross_ms"] = (_time_repeated(steady_cross, seconds)
                              * 1000 / n_variants)
    out["steady_cross_vs_same"] = (out["steady_cross_ms"]
                                   / out["steady_same_ms"])
    return out


def bench_mutant_sweep(seconds: float, task_id: str = "seq_count8_en",
                       n_mutants: int = 20) -> dict:
    """Lockstep union vs per-mutant sweeps at AutoEval scale.

    One driver, 20 mutants plus the golden lane — the shape Eval2
    batches and validator matrix builds take.  ``lockstep_speedup`` is
    the steady-state ratio (union template warm, what correction loops
    pay on every sweep) and gates CI; the fresh numbers clear the
    design/pair/union template caches per round (first sweep of a new
    driver, shared slot programs warm) and are informational.
    """
    task = get_task(task_id)
    driver = render_driver(task, task.canonical_scenarios())
    golden = task.golden_rtl()
    mutants = [m.source for m in generate_mutants(
        golden, n_mutants, task.task_id)]

    def sweep(engine):
        if engine == "lockstep":
            result = run_mutant_sweep(driver, mutants, golden_src=golden)
        else:
            result = _per_mutant_sweep(driver, mutants, golden, None,
                                       current_context())
        assert result.engine == engine, result.fallback_reason
        assert result.golden.ok

    # Warm templates and shared programs for both paths.
    sweep("lockstep")
    sweep("per-mutant")
    out = {
        "n_mutants": n_mutants,
        "lockstep_steady_ms": _time_repeated(
            lambda: sweep("lockstep"), seconds) * 1000,
        "per_mutant_steady_ms": _time_repeated(
            lambda: sweep("per-mutant"), seconds) * 1000,
    }
    out["lockstep_speedup"] = (out["per_mutant_steady_ms"]
                               / out["lockstep_steady_ms"])

    def fresh(engine):
        clear_template_caches()
        sweep(engine)

    out["lockstep_fresh_ms"] = _time_repeated(
        lambda: fresh("lockstep"), seconds) * 1000
    out["per_mutant_fresh_ms"] = _time_repeated(
        lambda: fresh("per-mutant"), seconds) * 1000
    out["lockstep_fresh_speedup"] = (out["per_mutant_fresh_ms"]
                                     / out["lockstep_fresh_ms"])
    return out


def bench_pool_warm_start(seconds: float, task_id: str = "seq_count8_en",
                          n_variants: int = 20, jobs: int = 2) -> dict:
    """Fork-pool parity with the ``warm_start`` flag on and off.

    Forked workers inherit the parent's caches through memory, so the
    flag ships nothing to them: steady-state batches with it on and off
    must run at parity (``fork_parity``).
    """
    from repro.core.simulation import shutdown_sim_pool

    task = get_task(task_id)
    driver = render_driver(task, task.canonical_scenarios())
    variants = [m.source for m in generate_mutants(
        task.golden_rtl(), n_variants, task.task_id)]

    def fork_steady_ms(warm: bool) -> float:
        with use_context(warm_start=warm):
            shutdown_sim_pool()
            run_driver_batch(driver, variants, jobs=jobs)  # pool up + warm
            return _time_repeated(
                lambda: run_driver_batch(driver, variants, jobs=jobs),
                seconds) * 1000

    out = {"fork_steady_warm_ms": fork_steady_ms(True),
           "fork_steady_cold_flag_ms": fork_steady_ms(False)}
    out["fork_parity"] = (out["fork_steady_warm_ms"]
                          / out["fork_steady_cold_flag_ms"])
    shutdown_sim_pool()
    return out


def bench_context_overhead(seconds: float) -> dict:
    """Cost of the PR-4 configuration API on the hot path.

    ``resolve_us`` / ``dispatch_us`` price one ``current_context()``
    resolve and one method-registry lookup (both sit on every simulate
    / campaign-item call).  ``overhead_ratio`` is the end-to-end check:
    a context-resolved counter simulation (``max_stmts=None`` under an
    active ``use_context(max_stmts=...)``) against the same run with
    the limit passed explicitly — the PR-3 cost model.  Parity (~1.0) is
    the CI floor: the explicit-global-to-context redesign must not tax
    the hot path.
    """
    from repro.eval.methods import get_method

    n = 10_000

    def resolve_loop():
        for _ in range(n):
            current_context()

    def dispatch_loop():
        for _ in range(n):
            get_method("baseline")

    out = {
        "resolve_us": _time_repeated(resolve_loop, seconds) / n * 1e6,
        "dispatch_us": _time_repeated(dispatch_loop, seconds) / n * 1e6,
    }

    max_stmts = current_context().max_stmts

    def run_explicit():
        result = simulate(COUNTER_TB, "tb", max_stmts=max_stmts)
        assert result.stdout == ["q=200"]

    def run_context():
        result = simulate(COUNTER_TB, "tb")
        assert result.stdout == ["q=200"]

    out["simulate_explicit_ms"] = _time_repeated(run_explicit,
                                                 seconds) * 1000
    with use_context(max_stmts=max_stmts):
        out["simulate_context_ms"] = _time_repeated(run_context,
                                                    seconds) * 1000
    out["overhead_ratio"] = (out["simulate_context_ms"]
                             / out["simulate_explicit_ms"])
    return out


def bench_service_throughput(seconds: float, concurrency: int = 8) -> dict:
    """Sustained service throughput: micro-batched vs unbatched serial.

    Two server configurations face the same closed-loop load
    (``scripts/loadgen.py``: ``concurrency`` workers in the
    thundering-herd shape — everyone at iteration *k* submits the same
    fresh epoch-*k* DUT, the load that motivates request coalescing):

    - **serial**: one executor thread, ``batch_max=1`` (every request
      is its own batch call).  The pre-micro-batching cost model:
      every request simulates, even when its neighbour just asked for
      the identical design.
    - **batched**: a 5 ms coalescing window with ``batch_max`` matched
      to the offered concurrency (full windows flush early instead of
      waiting out the timer).  A coalesced window dedups to its unique
      DUTs — one simulation answers every duplicate request — and
      unique survivors fan out across the sim pool where the host has
      cores for it (``jobs`` adapts; on a single-core runner the batch
      runs inline, since process fan-out cannot beat the GIL-free
      nothing it has to offer there).

    ``batched_vs_serial`` is the acceptance ratio (CI gates >= 1.5x at
    concurrency 8); p50/p99 come from the batched leg.
    """
    sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))
    from loadgen import default_payload_factory, run_load

    from repro.core.simulation import shutdown_sim_pool
    from repro.service import ServiceConfig, ServiceThread

    duration = max(2.0, seconds)
    factory = default_payload_factory()
    pool_jobs = max(1, min(4, os.cpu_count() or 1))
    legs = {
        "serial": ServiceConfig(port=0, workers=1, batch_max=1),
        "batched": ServiceConfig(port=0, workers=4,
                                 batch_max=concurrency,
                                 batch_window_ms=5.0),
    }
    out: dict = {"concurrency": concurrency,
                 "duration_per_leg_s": duration,
                 "pool_jobs": pool_jobs}
    for leg, config in legs.items():
        context = current_context().evolve(
            jobs=1 if leg == "serial" else pool_jobs)
        shutdown_sim_pool()
        clear_simulation_caches()
        service = ServiceThread(config, context).start()
        try:
            stats = run_load(service.base_url, concurrency=concurrency,
                             duration_s=duration,
                             payload_factory=factory)
        finally:
            service.stop()
        assert stats["errors"] == 0 and stats["completed_200"] > 0, stats
        out[leg] = {
            "throughput_rps": stats["throughput_rps"],
            "p50_ms": stats["latency_ms"]["p50"],
            "p99_ms": stats["latency_ms"]["p99"],
            "requests": stats["requests"],
        }
    shutdown_sim_pool()
    out["batched_vs_serial"] = (out["batched"]["throughput_rps"]
                                / out["serial"]["throughput_rps"])
    return out


def bench_campaign_resume(seconds: float, n_tasks: int = 6) -> dict:
    """Kill-resume value: resuming a half-completed campaign vs cold.

    ``cold_ms`` runs a full methods x tasks campaign from cleared caches
    into a fresh store — the cost an interrupted campaign pays if it has
    to restart from scratch.  ``resume_ms`` replays the crash-recovery
    path: a store pre-populated with the first half of the items (the
    CorrectBench-heavy half, methods-major order), caches cleared, then
    ``run_campaign(resume=True)`` answers the stored half without
    simulating and computes the rest.  ``resume_speedup`` is the same-run ratio CI gates on (>= 2x):
    if resuming ever gets within 2x of recomputing, the store has
    stopped paying for itself.
    """
    import shutil
    import tempfile

    from repro.eval import (CampaignStore, campaign_items, default_config,
                            run_campaign, store_key)
    from repro.problems import load_dataset

    tasks = load_dataset()
    cmb = [t.task_id for t in tasks if t.kind == "CMB"]
    seq = [t.task_id for t in tasks if t.kind == "SEQ"]
    task_ids = cmb[:n_tasks // 2] + seq[:n_tasks - n_tasks // 2]
    config = default_config(task_ids=task_ids)
    items = campaign_items(config)
    half = len(items) // 2

    # One full run provides the stored half a killed campaign leaves
    # behind.
    seed_root = tempfile.mkdtemp(prefix="bench-resume-seed-")
    try:
        seed_store = CampaignStore(seed_root)
        clear_simulation_caches()
        full = run_campaign(config, store=seed_store)
    finally:
        shutil.rmtree(seed_root, ignore_errors=True)

    def cold_ms() -> float:
        root = tempfile.mkdtemp(prefix="bench-resume-cold-")
        try:
            store = CampaignStore(root)
            clear_simulation_caches()
            t0 = time.perf_counter()
            result = run_campaign(config, store=store)
            elapsed = time.perf_counter() - t0
            assert result.store_hits == 0
            return elapsed * 1000
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def resume_ms() -> float:
        root = tempfile.mkdtemp(prefix="bench-resume-warm-")
        try:
            store = CampaignStore(root)
            for item, run in zip(items[:half], full.runs[:half]):
                store.put(store_key(*item), run)
            clear_simulation_caches()
            t0 = time.perf_counter()
            result = run_campaign(config, store=store, resume=True)
            elapsed = time.perf_counter() - t0
            assert result.store_hits == half
            assert result.runs == full.runs
            return elapsed * 1000
        finally:
            shutil.rmtree(root, ignore_errors=True)

    rounds = max(2, int(seconds / 0.5))
    out = {
        "n_items": len(items),
        "stored_half": half,
        "cold_ms": min(cold_ms() for _ in range(rounds)),
        "resume_ms": min(resume_ms() for _ in range(rounds)),
    }
    out["resume_speedup"] = out["cold_ms"] / out["resume_ms"]
    return out


def main(argv) -> int:
    quick = "--quick" in argv
    record = "--record" in argv
    seconds = 0.3 if quick else 2.0

    parse = bench_parse(seconds)
    counter = bench_counter(seconds)
    runaway = bench_runaway(seconds)
    matrix = bench_validator_matrix(seconds)
    batch = bench_batch_vs_serial(seconds)
    reuse = bench_driver_reuse(seconds)
    context = bench_context_overhead(seconds)
    sweep = bench_mutant_sweep(seconds)
    warm = bench_pool_warm_start(seconds)
    service = bench_service_throughput(seconds)
    resume = bench_campaign_resume(seconds)

    report = {
        "seed_baseline": SEED_BASELINE,
        "parse_front_end": parse,
        "counter_200_cycles_ms": counter,
        "runaway_dead_clock_ms": runaway,
        "validator_rs_matrix_20_ms": matrix,
        "driver_batch_10_mutants": batch,
        "driver_reuse_10_variants": reuse,
        "context_overhead": context,
        "mutant_sweep_20": sweep,
        "pool_warm_start": warm,
        "service_throughput": service,
        "campaign_resume": resume,
    }
    print(json.dumps(report, indent=2))

    ok = True
    # Same-machine, same-run ratios: meaningful on any host (CI gates on
    # these).  The reference interpreter benefits from the shared kernel
    # improvements (port aliasing, parse cache, scheduler), so the
    # thresholds sit below the vs-seed ones.
    # Quick (CI) floor sits below the measured ~3.2x like every other
    # quick gate here (noise headroom on shared runners); the full-run
    # floor is the 3x acceptance bar, checked with long sampling below.
    lexer_floor = 2.5 if quick else 3.0
    if parse["small_tb"]["lexer_speedup"] < lexer_floor:
        print("WARNING: master-regex lexer speedup "
              f"{parse['small_tb']['lexer_speedup']:.2f}x < "
              f"{lexer_floor}x vs reference lexer", file=sys.stderr)
        ok = False
    if counter["speedup_compiled_vs_interpret"] < 2.0:
        print("WARNING: counter compiled-vs-interpret speedup "
              f"{counter['speedup_compiled_vs_interpret']:.2f}x < 2x",
              file=sys.stderr)
        ok = False
    if matrix["speedup_steady_vs_seed_style"] < 2.0:
        print("WARNING: R/S matrix steady-state speedup "
              f"{matrix['speedup_steady_vs_seed_style']:.2f}x < 2x",
              file=sys.stderr)
        ok = False
    # Cross-design steady state must sit at parity with same-design:
    # bound programs make a sweep over N designs cost the same per run
    # as re-running one design.
    if reuse["steady_cross_vs_same"] > 1.5:
        print("WARNING: cross-design steady state "
              f"{reuse['steady_cross_vs_same']:.2f}x same-design (> 1.5x)",
              file=sys.stderr)
        ok = False
    # Context-resolution parity: the SimContext redesign must not tax
    # the hot path vs the PR-3 explicit-argument cost model.  The quick
    # floor carries noise headroom for shared CI runners.
    overhead_floor = 1.2 if quick else 1.1
    if context["overhead_ratio"] > overhead_floor:
        print("WARNING: context-resolved simulate is "
              f"{context['overhead_ratio']:.3f}x the explicit-limit "
              f"run (> {overhead_floor}x)", file=sys.stderr)
        ok = False
    if context["resolve_us"] > 10.0:
        print("WARNING: current_context() resolve costs "
              f"{context['resolve_us']:.2f}us (> 10us)", file=sys.stderr)
        ok = False
    # Lockstep mutant sweeps are the tentpole win: one union simulation
    # vs 21 separate runs.  The quick (CI) floor carries noise headroom
    # below the measured ~3x; full runs gate at the 2x acceptance bar.
    lockstep_floor = 1.5 if quick else 2.0
    if sweep["lockstep_speedup"] < lockstep_floor:
        print("WARNING: lockstep mutant sweep only "
              f"{sweep['lockstep_speedup']:.2f}x the per-mutant path "
              f"(< {lockstep_floor}x)", file=sys.stderr)
        ok = False
    # The warm_start flag ships nothing to fork pools, so their steady
    # state must stay at parity with the flag off.
    if warm["fork_parity"] > 1.3:
        print("WARNING: fork steady state with warm_start on is "
              f"{warm['fork_parity']:.2f}x the off path (> 1.3x)",
              file=sys.stderr)
        ok = False
    # Cross-request micro-batching is the PR-8 tentpole: coalesced
    # windows must beat unbatched serial dispatch under the same
    # closed-loop load.  1.5x is the acceptance bar at concurrency 8 —
    # quick and full alike, since the ratio is same-run/same-machine.
    if service["batched_vs_serial"] < 1.5:
        print("WARNING: micro-batched service throughput only "
              f"{service['batched_vs_serial']:.2f}x unbatched serial "
              "(< 1.5x)", file=sys.stderr)
        ok = False
    # Resuming a half-completed campaign must beat recomputing it cold:
    # the stored half (the CorrectBench-heavy one) is answered without
    # simulation.  2x is the acceptance bar on full runs (AutoEval
    # grading is method-independent, so half the items leave roughly
    # half the irreducible work — measured ~2.2-2.4x); the quick (CI)
    # floor carries noise headroom below it, like the lockstep gate.
    resume_floor = 1.5 if quick else 2.0
    if resume["resume_speedup"] < resume_floor:
        print("WARNING: campaign resume only "
              f"{resume['resume_speedup']:.2f}x a cold rerun "
              f"(< {resume_floor}x)", file=sys.stderr)
        ok = False
    # Absolute floor vs the recorded seed numbers: only comparable on
    # the reference container, so it never gates quick (CI) runs.
    if not quick and counter["speedup_vs_seed"] < 3.0:
        print("WARNING: counter speedup vs seed "
              f"{counter['speedup_vs_seed']:.2f}x < 3x", file=sys.stderr)
        ok = False
    if not quick and parse["small_tb"]["parse_speedup_vs_seed"] < 3.0:
        print("WARNING: cold-parse speedup vs pre-rewrite front end "
              f"{parse['small_tb']['parse_speedup_vs_seed']:.2f}x < 3x",
              file=sys.stderr)
        ok = False

    if record:
        BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")
        print(f"recorded {BENCH_JSON}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
