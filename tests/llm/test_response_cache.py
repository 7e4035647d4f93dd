"""Response cache: keying, hit/miss behaviour, error transparency, and
the ``llm_responses`` registration in the cache registry."""

import pytest

from repro.core.caches import caches
from repro.llm import (ChatMessage, ChatRequest, ChatResponse,
                       GenerationIntent, Usage)
from repro.llm.backends import (BackendServerError, CachingBackend,
                                OllamaBackend, ResilientBackend,
                                RetryPolicy, SamplingParams,
                                response_cache, response_key)
from repro.llm.replay import prompt_sha
from repro.util import LruCache


def _request(content="the prompt", kind="driver"):
    return ChatRequest(messages=(ChatMessage("user", content),),
                       intent=GenerationIntent(kind, "t", {}))


class _Counting:
    name = "count-model"
    backend_id = "counting"

    def __init__(self, fail_first=0):
        self.calls = 0
        self.fail_first = fail_first

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise BackendServerError("boom", backend=self.backend_id)
        return ChatResponse(f"answer #{self.calls}", Usage(3, 4),
                            self.name)


class TestResponseKey:
    def test_key_carries_backend_model_prompt_and_params(self):
        key = response_key("ollama", "m", "p", "t=0.0")
        assert key == ("ollama", "m", prompt_sha("p"), "t=0.0")

    def test_any_component_changing_changes_the_key(self):
        base = response_key("ollama", "m", "p", "t=0.0")
        assert response_key("openai", "m", "p", "t=0.0") != base
        assert response_key("ollama", "m2", "p", "t=0.0") != base
        assert response_key("ollama", "m", "p2", "t=0.0") != base
        assert response_key("ollama", "m", "p", "t=0.7") != base


class TestCachingBackend:
    def test_repeat_request_hits_without_a_wire_call(
            self, clean_response_cache):
        inner = _Counting()
        backend = CachingBackend(inner)
        first = backend.complete(_request())
        second = backend.complete(_request())
        assert inner.calls == 1
        assert second is first  # including recorded usage
        assert backend.hits == 1 and backend.misses == 1

    def test_distinct_prompts_miss(self, clean_response_cache):
        inner = _Counting()
        backend = CachingBackend(inner)
        backend.complete(_request("a"))
        backend.complete(_request("b"))
        assert inner.calls == 2

    def test_error_leaves_the_cache_unchanged(self,
                                              clean_response_cache):
        inner = _Counting(fail_first=1)
        backend = CachingBackend(inner)
        with pytest.raises(BackendServerError):
            backend.complete(_request())
        assert len(clean_response_cache) == 0
        assert backend.complete(_request()).text == "answer #2"
        assert backend.complete(_request()).text == "answer #2"  # hit
        assert inner.calls == 2

    def test_derives_identity_through_a_resilient_wrapper(
            self, clean_response_cache):
        adapter = OllamaBackend("m", params=SamplingParams(
            temperature=0.5))
        stack = CachingBackend(ResilientBackend(
            adapter, policy=RetryPolicy(jitter=0.0)))
        assert stack.backend_id == "ollama"
        assert stack.params_fingerprint == \
            SamplingParams(temperature=0.5).fingerprint()
        assert stack.name == "m"

    def test_cache_hit_skips_the_resilience_layer(
            self, clean_response_cache):
        inner = _Counting()
        resilient = ResilientBackend(inner,
                                     policy=RetryPolicy(jitter=0.0))
        backend = CachingBackend(resilient)
        backend.complete(_request())
        backend.complete(_request())
        assert resilient.attempts == 1  # the hit never reached it

    def test_explicit_cache_override(self):
        private = LruCache(capacity=4)
        backend = CachingBackend(_Counting(), cache=private)
        backend.complete(_request())
        assert len(private) == 1
        assert len(response_cache()) == 0 or \
            response_cache().get(response_key(
                "counting", "count-model",
                _request().prompt_text, "")) is None


class TestRegistryIntegration:
    def test_llm_responses_is_a_registered_layer(self):
        assert "llm_responses" in caches.names()
        assert "llm_responses" in caches.stats()

    def test_clear_verb_reaches_the_store(self, clean_response_cache):
        CachingBackend(_Counting()).complete(_request())
        assert len(response_cache()) == 1
        caches.clear("llm_responses")
        assert len(response_cache()) == 0
