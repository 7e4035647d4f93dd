"""``correctbench`` command-line interface.

Subcommands:

- ``dataset``  — list the benchmark tasks or show one task's artifacts;
- ``run``      — run one method on one task and grade it with AutoEval;
- ``validate`` — generate a testbench and show its RS matrix + verdict;
- ``campaign`` — run a methods x tasks x seeds campaign, print Table I/III;
- ``trace``    — record, replay, or summarise correction traces
  (``trace record``, ``trace replay``, ``trace report``);
- ``serve``    — run the asyncio testbench-generation service
  (``serve --status`` queries a running server's telemetry endpoint).

``run``/``validate``/``campaign`` accept ``--trace-dir`` and the LLM
backend flags, and ``campaign`` additionally ``--start-method`` and
``--warm-start/--no-warm-start`` (worker-pool start method and
pre-warming the parent before workers fork) plus ``--store DIR`` / ``--resume`` /
``--shards N`` (persistent artifact store, kill-resume, and the shard
coordinator); the selections feed a
:class:`~repro.hdl.context.SimContext` activated around the command
(and shipped inside campaign work items), so no environment variable
is needed to configure a run.  ``run`` and ``campaign``
dispatch through the campaign-method registry: a method registered
with :func:`repro.eval.register_method` before :func:`build_parser` is
called appears in ``--method`` choices automatically.
"""

from __future__ import annotations

import argparse
import sys

from .core import (CRITERIA, AutoBenchGenerator, DEFAULT_CRITERION,
                   ScenarioValidator)
from .eval import (default_config, evaluate, registered_methods,
                   render_recovery_report, render_store_summary,
                   render_table1, render_table3, render_usage_summary,
                   run_campaign, run_one, run_sharded_campaign)
from .hdl.context import (START_METHODS, current_context, use_context,
                          valid_llm_backend)
from .llm import MeteredClient, UsageMeter
from .problems import load_dataset, get_task


def _client(model: str, seed: int, context=None,
            task_id: str = "") -> MeteredClient:
    """A metered client honoring the context's ``llm_backend`` (the
    synthetic tier when none is selected)."""
    from .llm.backends import resolve_llm_client

    inner = resolve_llm_client(model, seed, context=context,
                               task_id=task_id)
    return MeteredClient(inner, UsageMeter())


def _backend_spec(value: str) -> str:
    if not valid_llm_backend(value):
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a backend spec (synthetic, ollama, "
            f"openai, hf, fixture, or fixture+<name>)")
    return value


def _context(args):
    """The SimContext for this invocation: the ambient context evolved
    with whatever ``--start-method`` / ``--warm-start`` / ``--trace-dir``
    / ``--store`` / ``--backend`` selected."""
    overrides = {}
    if getattr(args, "start_method", None):
        overrides["start_method"] = args.start_method
    if getattr(args, "warm_start", None) is not None:
        overrides["warm_start"] = args.warm_start
    if getattr(args, "trace_dir", None):
        overrides["trace_dir"] = args.trace_dir
    if getattr(args, "store", None):
        overrides["store_dir"] = args.store
    if getattr(args, "backend", None):
        overrides["llm_backend"] = args.backend
        # With a live backend, --model is the model id sent on the wire
        # (for the synthetic tier it stays the profile name).
        overrides["llm_model"] = args.model
    if getattr(args, "base_url", None):
        overrides["llm_base_url"] = args.base_url
    if getattr(args, "fixture_dir", None):
        overrides["llm_fixture_dir"] = args.fixture_dir
    return current_context().evolve(**overrides)


# ----------------------------------------------------------------------
def cmd_dataset(args) -> int:
    if args.task:
        task = get_task(args.task)
        print(f"# {task.task_id} [{task.kind}] {task.title}")
        print(f"# family={task.family} difficulty={task.difficulty}")
        print()
        print(task.spec_text)
        if args.show_rtl:
            print("--- golden RTL ---")
            print(task.golden_rtl())
        if args.show_checker:
            print("--- golden checker core ---")
            print(task.golden_model_source())
        return 0
    tasks = load_dataset()
    print(f"{len(tasks)} tasks "
          f"({sum(1 for t in tasks if t.kind == 'CMB')} CMB, "
          f"{sum(1 for t in tasks if t.kind == 'SEQ')} SEQ)")
    for task in tasks:
        print(f"  {task.task_id:<24} [{task.kind}] {task.title}")
    return 0


def cmd_run(args) -> int:
    run = run_one(args.method, args.task, seed=args.seed,
                  profile_name=args.model, criterion_name=args.criterion,
                  context=_context(args))
    if run.validated is not None:
        print(f"validated={run.validated} reboots={run.reboots} "
              f"corrections={run.corrections}")
    print(f"AutoEval: {run.level.label}")
    print(f"tokens: in={run.usage.input_tokens} "
          f"out={run.usage.output_tokens}")
    return 0


def cmd_validate(args) -> int:
    with use_context(_context(args)):
        task = get_task(args.task)
        client = _client(args.model, args.seed, task_id=args.task)
        testbench = AutoBenchGenerator(client, task).generate()
        validator = ScenarioValidator(client, task,
                                      CRITERIA[args.criterion])
        report = validator.validate(testbench)
        print(report.matrix.render_ascii())
        print()
        print(f"verdict: {'correct' if report.verdict else 'wrong'}"
              + (f"  ({report.note})" if report.note else ""))
        print(f"wrong={list(report.wrong)} correct={list(report.correct)} "
              f"uncertain={list(report.uncertain)}")
        grade = evaluate(testbench)
        print(f"AutoEval ground truth: {grade.level.label}")
    return 0


def cmd_campaign(args) -> int:
    task_ids = None
    if args.tasks:
        task_ids = [t.strip() for t in args.tasks.split(",")]
    elif args.limit:
        tasks = load_dataset()
        cmb = [t.task_id for t in tasks if t.kind == "CMB"]
        seq = [t.task_id for t in tasks if t.kind == "SEQ"]
        task_ids = cmb[:args.limit // 2] + seq[:args.limit - args.limit // 2]
    overrides = {}
    if args.methods:
        overrides["methods"] = tuple(
            m.strip() for m in args.methods.split(","))
    context = _context(args)
    config = default_config(
        task_ids=task_ids, seeds=tuple(range(args.seeds)),
        profile_name=args.model, criterion_name=args.criterion,
        n_jobs=args.jobs, context=context, **overrides)
    if (args.resume or args.shards > 1) and not context.store_dir:
        print("error: --resume/--shards need a store; pass --store DIR "
              "or set REPRO_STORE_DIR", file=sys.stderr)
        return 2
    if args.shards > 1:
        result = run_sharded_campaign(config, args.shards)
    else:
        result = run_campaign(config, resume=args.resume)
    if context.store_dir:
        # Store accounting goes to stderr so a resumed run's stdout
        # report stays byte-identical to an uninterrupted one (the CI
        # crash-fault job diffs them).
        print(render_store_summary(result), file=sys.stderr)
    if any(run.fault_class for run in result.runs):
        print(render_recovery_report(result))
        print()
    print(render_table1(result))
    print(render_table3(result))
    print()
    print(render_usage_summary(result))
    return 0


# ----------------------------------------------------------------------
def cmd_trace_record(args) -> int:
    from .core.agent import CorrectBenchWorkflow
    from .core.trace import JsonlTraceSink

    context = _context(args)
    if not args.out and not context.trace_dir:
        print("error: pass --out FILE or --trace-dir DIR", file=sys.stderr)
        return 2
    with use_context(context):
        task = get_task(args.task)
        client = _client(args.model, args.seed, task_id=args.task)
        sink = JsonlTraceSink(args.out) if args.out else None
        workflow = CorrectBenchWorkflow(
            client, task, CRITERIA[args.criterion], trace_sink=sink)
        try:
            result = workflow.run()
        finally:
            close = getattr(client.inner, "close", None)
            if close is not None:  # flush a fixture recording's sink
                close()
    print(f"recorded {task.task_id}: validated={result.validated} "
          f"corrections={result.corrections} reboots={result.reboots}")
    print(f"trace written under {args.out or context.trace_dir}")
    return 0


def cmd_trace_replay(args) -> int:
    from .core.trace import load_trace, replay_workflow

    trace = load_trace(args.trace)
    handoff = None
    if args.rounds is not None:
        handoff = _client(args.model, args.seed,
                          context=_context(args))
    with use_context(_context(args)):
        outcome = replay_workflow(trace, strict=not args.lenient,
                                  rounds=args.rounds, handoff=handoff)
    result = outcome.result
    print(f"replayed {trace.header['task_id']}: "
          f"validated={result.validated} "
          f"corrections={result.corrections} reboots={result.reboots}")
    if outcome.matches:
        print("round verdicts match the recording")
        return 0
    print(f"DIVERGED at round {outcome.diverged_round()}",
          file=sys.stderr)
    return 1


def cmd_trace_report(args) -> int:
    from .core.trace import load_trace

    trace = load_trace(args.trace)
    header = trace.header
    print(f"task={header['task_id']} model={header.get('model')} "
          f"seed={header.get('seed')} criterion={header.get('criterion')}")
    print(f"exchanges={len(trace.exchanges())} "
          f"rounds={len(trace.validations())}")
    for event in trace.validations():
        status = "PASS" if event["verdict"] else "fail"
        print(f"  round {event['round']}: {status} "
              f"wrong={event['wrong']} origin={event['origin']} "
              f"gen={event['generation_index']} "
              f"corr={event['correction_index']} "
              f"[{event['elapsed_ms']:.0f} ms, "
              f"{event['exchanges_so_far']} exchanges]"
              + (f" note={event['note']}" if event["note"] else ""))
    result = trace.result()
    if result is not None:
        print(f"result: validated={result['validated']} "
              f"gave_up={result['gave_up']} "
              f"corrections={result['corrections']} "
              f"reboots={result['reboots']} usage={result['usage']}")
    return 0


# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    import asyncio
    import json

    from .service import TestbenchService, service_config_from_env

    config = service_config_from_env()
    overrides = {name: getattr(args, name)
                 for name in ("host", "port", "queue_limit",
                              "batch_window_ms", "batch_max", "workers",
                              "drain_timeout")
                 if getattr(args, name) is not None}
    config = config.evolve(**overrides)

    if args.status:
        import urllib.error
        import urllib.request

        url = f"http://{config.host}:{config.port}/v1/status"
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError) as exc:
            print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2))
        return 0

    context = _context(args)
    if args.jobs is not None:
        context = context.evolve(jobs=max(1, args.jobs))

    async def _serve() -> None:
        import contextlib
        import signal

        service = TestbenchService(config, context)
        await service.start()
        print(f"serving on http://{config.host}:{service.port} "
              f"(queue_limit={config.queue_limit} "
              f"batch_window_ms={config.batch_window_ms} "
              f"batch_max={config.batch_max} workers={config.workers} "
              f"sim_jobs={context.jobs}); Ctrl-C/SIGTERM drains and exits")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        # SIGTERM must drain too: background shells (and CI steps) set
        # SIGINT to ignore for async children, so plain `kill` is the
        # operational stop signal.
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        serve_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait({serve_task, stop_task},
                               return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            pass
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
            await asyncio.gather(serve_task, stop_task,
                                 return_exceptions=True)
            await service.shutdown(drain=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; drained in-flight work", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="correctbench",
        description="CorrectBench reproduction (DATE 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="list / show tasks")
    p_dataset.add_argument("--task", help="show one task")
    p_dataset.add_argument("--show-rtl", action="store_true")
    p_dataset.add_argument("--show-checker", action="store_true")
    p_dataset.set_defaults(func=cmd_dataset)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default="gpt-4o")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--criterion", default=DEFAULT_CRITERION.name,
                        choices=sorted(CRITERIA))
    common.add_argument("--trace-dir", default=None, dest="trace_dir",
                        help="record correction traces (JSONL) into this "
                             "directory (default: REPRO_TRACE_DIR / off)")
    common.add_argument("--backend", type=_backend_spec, default=None,
                        help="LLM backend spec: synthetic (default), "
                             "ollama, openai, hf, fixture, or "
                             "fixture+<name> to record through a backend "
                             "(default: REPRO_LLM_BACKEND / synthetic); "
                             "with a live backend --model is the model "
                             "id sent on the wire")
    common.add_argument("--base-url", default=None, dest="base_url",
                        help="live backend endpoint override "
                             "(default: REPRO_LLM_BASE_URL / the "
                             "adapter's default)")
    common.add_argument("--fixture-dir", default=None, dest="fixture_dir",
                        help="directory fixture backends record to / "
                             "replay from "
                             "(default: REPRO_LLM_FIXTURE_DIR)")

    p_run = sub.add_parser("run", parents=[common],
                           help="run one method on one task")
    p_run.add_argument("task")
    p_run.add_argument("--method", default="correctbench",
                       choices=registered_methods())
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", parents=[common],
                           help="validate a generated TB (RS matrix)")
    p_val.add_argument("task")
    p_val.set_defaults(func=cmd_validate)

    p_camp = sub.add_parser("campaign", parents=[common],
                            help="run a methods x tasks x seeds campaign")
    p_camp.add_argument("--tasks", help="comma-separated task ids")
    p_camp.add_argument("--methods",
                        help="comma-separated registered method names "
                             "(default: the paper's three)")
    p_camp.add_argument("--limit", type=int, default=0,
                        help="balanced slice size (0 = full dataset)")
    p_camp.add_argument("--seeds", type=int, default=1)
    p_camp.add_argument("--jobs", type=int, default=1)
    p_camp.add_argument("--start-method", choices=START_METHODS,
                        default=None, dest="start_method",
                        help="worker-pool start method "
                             "(default: active context / platform)")
    p_camp.add_argument("--warm-start", action=argparse.BooleanOptionalAction,
                        default=None, dest="warm_start",
                        help="pre-warm this process's caches from the "
                             "task list before pool or shard workers "
                             "fork, so they inherit them "
                             "(default: active context, on)")
    p_camp.add_argument("--store", default=None,
                        help="persist every completed item into this "
                             "campaign artifact store directory "
                             "(default: REPRO_STORE_DIR / off)")
    p_camp.add_argument("--resume", action="store_true",
                        help="answer already-stored items from --store "
                             "without resimulating")
    p_camp.add_argument("--shards", type=int, default=1,
                        help="fan task slices out to this many worker "
                             "processes sharing the --store (1 = in-"
                             "process)")
    p_camp.set_defaults(func=cmd_campaign)

    p_serve = sub.add_parser(
        "serve",
        help="run the asyncio testbench-generation service")
    p_serve.add_argument("--host", default=None,
                         help="bind address (default: REPRO_SERVICE_HOST "
                              "/ 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="bind port, 0 = ephemeral "
                              "(default: REPRO_SERVICE_PORT / 8322)")
    p_serve.add_argument("--queue-limit", type=int, default=None,
                         dest="queue_limit",
                         help="admitted-but-unfinished request cap; "
                              "past it the server answers 429")
    p_serve.add_argument("--batch-window-ms", type=float, default=None,
                         dest="batch_window_ms",
                         help="micro-batch coalescing window "
                              "(0 disables windowing)")
    p_serve.add_argument("--batch-max", type=int, default=None,
                         dest="batch_max",
                         help="flush a batch window early at this many "
                              "jobs (1 disables coalescing)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="executor threads running simulate batches")
    p_serve.add_argument("--drain-timeout", type=float, default=None,
                         dest="drain_timeout",
                         help="max seconds shutdown waits for in-flight "
                              "work")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="sim process-pool fan-out per batch "
                              "(default: active context)")
    p_serve.add_argument("--status", action="store_true",
                         help="query a running server's /v1/status "
                              "(uses --host/--port) and exit")
    p_serve.set_defaults(func=cmd_serve)

    p_trace = sub.add_parser(
        "trace", help="record / replay / summarise correction traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_record = trace_sub.add_parser(
        "record", parents=[common],
        help="run the CorrectBench workflow on a task, recording a trace")
    p_record.add_argument("task")
    p_record.add_argument("--out", default=None,
                          help="trace file path (overrides --trace-dir)")
    p_record.set_defaults(func=cmd_trace_record)

    p_replay = trace_sub.add_parser(
        "replay", parents=[common],
        help="re-run a recorded trace and compare round verdicts")
    p_replay.add_argument("trace", help="path to a .trace.jsonl file")
    p_replay.add_argument("--lenient", action="store_true",
                          help="match exchanges by intent kind only "
                               "(default: strict prompt-hash matching)")
    p_replay.add_argument("--rounds", type=int, default=None,
                          help="replay only the first N validation rounds, "
                               "then hand off to a live client "
                               "(mid-trace resume)")
    p_replay.set_defaults(func=cmd_trace_replay)

    p_report = trace_sub.add_parser(
        "report", help="summarise a recorded trace")
    p_report.add_argument("trace", help="path to a .trace.jsonl file")
    p_report.set_defaults(func=cmd_trace_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
