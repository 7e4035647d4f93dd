"""Per-layer span tracer for the campaign benchmark.

The tracer wraps each layer's entry point from outside the program: a
module-level function is rebound at *every* ``from ... import`` alias in
every loaded ``repro`` module, and a method is rebound on its defining
class.  Each call records a span (layer, start, end, parent span) on a
per-thread stack; a layer's self time is its spans' durations minus the
part their child spans cover, so the self times of all layers under the
root span sum exactly to the root's wall time.

Spans are kept in flat integer arrays while the campaign runs and are
written out only by :meth:`Tracer.write_spans`, after the measurement.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import threading
import time
from array import array
from contextlib import contextmanager

# (layer, module, attribute path).  A dotted path names a method on a
# class of that module.  Order is the report order.
LAYERS = (
    ("lex", "repro.hdl.lexer", "tokenize"),
    ("parse", "repro.hdl.parser", "Parser.parse_source"),
    ("elaborate", "repro.hdl.elaborate", "elaborate"),
    ("compile", "repro.hdl.compile", "compile_spec"),
    ("union", "repro.hdl.lockstep", "build_union"),
    ("kernel", "repro.hdl.simulator", "Simulator.run"),
    ("demux", "repro.core.simulation", "_demux_records"),
    ("demux", "repro.core.simulation", "parse_dump"),
    ("checker", "repro.core.checker_runtime", "run_checker"),
    ("llm", "repro.llm.synthetic", "SyntheticLLM.complete"),
    ("tokens", "repro.llm.tokens", "approx_token_count"),
    ("golden", "repro.eval.golden", "golden_artifacts"),
    ("validator", "repro.core.validator", "ScenarioValidator.validate"),
    ("corrector", "repro.core.corrector", "Corrector.correct"),
    ("generator", "repro.core.generator", "AutoBenchGenerator.generate"),
    ("generator", "repro.core.baseline", "DirectBaseline.generate"),
    ("autoeval", "repro.eval.autoeval", "evaluate"),
    ("store.put", "repro.eval.store", "CampaignStore.put"),
    ("store.get", "repro.eval.store", "CampaignStore.get"),
    ("prewarm", "repro.eval.campaign", "prewarm_campaign_caches"),
    ("pool_start", "repro.core.simulation", "get_sim_pool"),
)
ROOT = "campaign"  # the benchmark's own span around run_campaign
LAYER_NAMES = tuple(dict.fromkeys(
    [ROOT] + [layer for layer, _, _ in LAYERS]))

# Entry points observed for counters only (no span of their own).
SWEEP = ("repro.core.simulation", "run_mutant_sweep")
FALLBACK_CLASSES = ("monolithic", "unsupported", "error")


def fallback_class(reason: str) -> str:
    """Bucket a ``MutantSweep.fallback_reason`` into a fixed class:
    monolithic sweeps, shapes lockstep cannot express, and union
    build/run errors (``HdlError``, ``RecursionError``)."""
    if reason.startswith("monolithic"):
        return "monolithic"
    if reason.startswith("LockstepUnsupported"):
        return "unsupported"
    return "error"


def _repro_modules():
    """(name, module) for every loaded module of the program."""
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original object) for a layer entry."""
    owner = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, name, owner.__dict__[name]


class Tracer:
    """Installs span wrappers; call :meth:`uninstall` to restore."""

    def __init__(self):
        self._index = {name: i for i, name in enumerate(LAYER_NAMES)}
        n = len(LAYER_NAMES)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.limit_hits = 0
        self.limit_ns = 0
        self.token_chars = 0
        self.sweeps = {"lockstep": 0, "per-mutant": 0}
        self.fallbacks = dict.fromkeys(FALLBACK_CLASSES, 0)
        # Flat span store: layer id, start ns, end ns, parent span index.
        self.span_layer = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer_id: int) -> list:
        stack = self._stack()
        parent = stack[-1][2] if stack else -1
        index = len(self.span_start)
        self.span_layer.append(layer_id)
        self.span_parent.append(parent)
        self.span_end.append(0)
        frame = [layer_id, 0, index, 0]  # layer, start, span, child ns
        stack.append(frame)
        start = time.perf_counter_ns()
        frame[1] = start
        self.span_start.append(start)
        return frame

    def exit(self, frame: list) -> int:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        layer_id = frame[0]
        self.calls[layer_id] += 1
        self.self_ns[layer_id] += duration - frame[3]
        self.span_end[frame[2]] = end
        if stack:
            stack[-1][3] += duration
        return duration

    @contextmanager
    def span(self, layer: str):
        """A span the benchmark opens itself (the root)."""
        frame = self.enter(self._index[layer])
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, layer: str, original):
        tracer, layer_id = self, self._index[layer]
        enter, exit_ = self.enter, self.exit
        if layer == "kernel":
            from repro.hdl.errors import SimulationLimit

            def wrapper(*args, **kwargs):
                frame = enter(layer_id)
                try:
                    return original(*args, **kwargs)
                except SimulationLimit:
                    tracer.limit_hits += 1
                    tracer.limit_ns += time.perf_counter_ns() - frame[1]
                    raise
                finally:
                    exit_(frame)
        elif layer == "tokens":
            def wrapper(text, *args, **kwargs):
                tracer.token_chars += len(text) if text else 0
                frame = enter(layer_id)
                try:
                    return original(text, *args, **kwargs)
                finally:
                    exit_(frame)
        else:
            def wrapper(*args, **kwargs):
                frame = enter(layer_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(frame)
        wrapper.__wrapped__ = original
        return wrapper

    def _sweep_wrapper(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            sweep = original(*args, **kwargs)
            tracer.sweeps[sweep.engine] = tracer.sweeps.get(
                sweep.engine, 0) + 1
            if sweep.fallback_reason:
                tracer.fallbacks[fallback_class(sweep.fallback_reason)] += 1
            return sweep

        wrapper.__wrapped__ = original
        return wrapper

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        """Bind ``wrapper`` on ``owner`` and at every module alias."""
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)
        if isinstance(owner, type):
            return  # methods resolve through the class
        for _, module in _repro_modules():
            for alias, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._patches.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def install(self) -> "Tracer":
        for layer, module_name, path in LAYERS:
            owner, name, original = _resolve(module_name, path)
            self._rebind(owner, name, original,
                         self._wrap(layer, original))
        owner, name, original = _resolve(*SWEEP)
        self._rebind(owner, name, original, self._sweep_wrapper(original))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def unwrapped_aliases(self) -> list[str]:
        """Loaded-module attributes still bound to an original entry
        point (empty when installation reached every alias)."""
        originals = {id(original) for _, _, original in self._patches}
        return [f"{module_name}.{alias}"
                for module_name, module in _repro_modules()
                for alias, value in list(vars(module).items())
                if id(value) in originals]

    # -- reporting -------------------------------------------------------
    def metrics(self) -> dict:
        """Counter and self-time metrics keyed ``<layer>.calls`` /
        ``<layer>.self_s``, plus the kernel, token and sweep counters."""
        out = {}
        for layer, layer_id in self._index.items():
            out[f"{layer}.calls"] = self.calls[layer_id]
            out[f"{layer}.self_s"] = self.self_ns[layer_id] / 1e9
        out["kernel.limit_hits"] = self.limit_hits
        out["kernel.limit_s"] = self.limit_ns / 1e9
        out["tokens.chars"] = self.token_chars
        out["sweep.lockstep"] = self.sweeps.get("lockstep", 0)
        out["sweep.per_mutant"] = self.sweeps.get("per-mutant", 0)
        out["sweep.fallbacks"] = sum(self.fallbacks.values())
        for reason, count in self.fallbacks.items():
            out[f"sweep.fallbacks.{reason}"] = count
        return out

    def top_level_s(self) -> float:
        """Summed wall time of the spans no other span encloses."""
        return sum(end - start for start, end, parent in zip(
            self.span_start, self.span_end, self.span_parent)
            if parent < 0) / 1e9

    def write_spans(self, path) -> int:
        """Write every span as ``layer,start_ns,end_ns,parent`` lines
        (gzip); returns the number of spans written."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("layer,start_ns,end_ns,parent\n")
            for i in range(len(self.span_start)):
                out.write(f"{LAYER_NAMES[self.span_layer[i]]},"
                          f"{self.span_start[i]},{self.span_end[i]},"
                          f"{self.span_parent[i]}\n")
        return len(self.span_start)
