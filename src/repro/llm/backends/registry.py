"""Backend registry: spec strings -> adapter stacks.

A *backend spec* is the string carried by
:attr:`repro.hdl.context.SimContext.llm_backend` (CLI ``--backend``,
``REPRO_LLM_BACKEND``, the service's whitelisted selector):

- ``""`` / ``"synthetic"`` — the deterministic synthetic tier (the
  default; campaigns and CI run here);
- ``"ollama"`` / ``"openai"`` / ``"hf"`` — a live adapter, wrapped in
  the full stack ``CachingBackend(ResilientBackend(adapter))`` so every
  live request gets retry/rate discipline and response caching;
- ``"fixture"`` — replay recorded fixtures from
  :attr:`~repro.hdl.context.SimContext.llm_fixture_dir` (offline);
- ``"fixture+<inner>"`` — run ``<inner>`` (an adapter or
  ``synthetic``) *and* record every exchange to the fixture directory,
  producing the files plain ``"fixture"`` replays.

:func:`resolve_llm_client` is the single construction point
:func:`repro.eval.campaign.run_one` (and therefore the CLI and the
service) calls; the grammar itself is validated by
:func:`repro.hdl.context.valid_llm_backend` where the context is
built, so a bad spec fails at configuration time, not mid-campaign.

The API key is read from ``REPRO_LLM_API_KEY`` at construction time —
deliberately *not* a :class:`~repro.hdl.context.SimContext` field, so
the secret is never pickled into work items or echoed by telemetry.
"""

from __future__ import annotations

import os

from ...hdl.context import (LLM_ADAPTERS, LLM_FIXTURE, LLM_SYNTHETIC,
                            SimContext, current_context)
from ..base import LLMClient
from .base import LLMBackend, SamplingParams
from .cache import CachingBackend
from .fixtures import FixtureBackend, FixtureStore
from .ollama import OllamaBackend
from .openai_compat import HFRouterBackend, OpenAICompatBackend
from .resilience import ResilientBackend

ADAPTERS: dict[str, type[LLMBackend]] = {
    "ollama": OllamaBackend,
    "openai": OpenAICompatBackend,
    "hf": HFRouterBackend,
}

assert tuple(ADAPTERS) == LLM_ADAPTERS, \
    "adapter registry out of sync with hdl.context.LLM_ADAPTERS"


def backend_names() -> tuple[str, ...]:
    """Every plain (non-compound) backend spec."""
    return (LLM_SYNTHETIC,) + tuple(ADAPTERS) + (LLM_FIXTURE,)


def create_backend(name: str, model: str, *, base_url: str = "",
                   api_key: str = "", timeout: float = 120.0,
                   params: SamplingParams | None = None) -> LLMBackend:
    """Construct one bare adapter (no resilience / caching wrappers)."""
    try:
        adapter_cls = ADAPTERS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; adapters: "
                         f"{tuple(ADAPTERS)}") from None
    return adapter_cls(model, base_url=base_url, api_key=api_key,
                       timeout=timeout, params=params)


def live_stack(name: str, context: SimContext,
               profile_name: str) -> LLMClient:
    """The full wrapper stack for one live adapter.

    Cache outermost: a response-cache hit costs neither a retry attempt
    nor a rate-budget slot.
    """
    adapter = create_backend(
        name,
        model=context.llm_model or profile_name,
        base_url=context.llm_base_url,
        api_key=os.environ.get("REPRO_LLM_API_KEY", ""))
    return CachingBackend(ResilientBackend(adapter))


def is_live_backend(spec: str) -> bool:
    """Does ``spec`` reach the network?  (Campaign executors use this:
    live items fan out on threads — I/O-bound, unpicklable clients —
    where synthetic items use the process pool.)"""
    head, _, tail = spec.partition("+")
    if head in ADAPTERS:
        return True
    return head == LLM_FIXTURE and tail in ADAPTERS


def resolve_llm_client(profile_name: str, seed: int, *,
                       context: SimContext | None = None,
                       task_id: str = "", method: str = "") -> LLMClient:
    """Build the client one work item talks to.

    Dispatches on ``context.llm_backend``; the default (``""``) is the
    synthetic tier, byte-identical to the pre-backend behaviour.
    ``task_id`` / ``method`` name the fixture file for the fixture
    modes.
    """
    if context is None:
        context = current_context()
    spec = context.llm_backend or LLM_SYNTHETIC
    if spec == LLM_SYNTHETIC:
        from ..profiles import get_profile
        from ..synthetic import SyntheticLLM
        return SyntheticLLM(get_profile(profile_name), seed=seed)
    head, compound, inner_spec = spec.partition("+")
    if head != LLM_FIXTURE:
        return live_stack(head, context, profile_name)
    if not context.llm_fixture_dir:
        raise ValueError(
            f"backend {spec!r} needs a fixture directory "
            f"(--fixture-dir / REPRO_LLM_FIXTURE_DIR)")
    store = FixtureStore(context.llm_fixture_dir)
    path = store.path_for(task_id or "session",
                          context.llm_model or profile_name, seed,
                          method=method)
    if not compound:
        return FixtureBackend.replay(path)
    if inner_spec == LLM_SYNTHETIC:
        from ..profiles import get_profile
        from ..synthetic import SyntheticLLM
        inner: LLMClient = SyntheticLLM(get_profile(profile_name),
                                        seed=seed)
    else:
        inner = live_stack(inner_spec, context, profile_name)
    return FixtureBackend.record(inner, path)
