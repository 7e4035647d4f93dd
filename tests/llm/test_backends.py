"""Live adapters against the scripted stub server: wire shapes, usage
parsing, and the typed error mapping of the HTTP transport."""

import socket

import pytest
from stub_server import error, ok, raw

from repro.llm import ChatMessage, ChatRequest, GenerationIntent
from repro.llm.backends import (BackendConnectionError, BackendError,
                                BackendRateLimited, BackendRequestError,
                                BackendServerError, BackendTimeout,
                                HFRouterBackend, LLMBackend,
                                MalformedResponseError, OllamaBackend,
                                OpenAICompatBackend, SamplingParams,
                                backend_names, create_backend,
                                is_live_backend, use_deadline)
from repro.llm.tokens import approx_token_count


def _request(content="hello backend", system=""):
    messages = ((ChatMessage("system", system),) if system else ())
    messages += (ChatMessage("user", content),)
    return ChatRequest(messages=messages,
                       intent=GenerationIntent("driver", "t", {}))


def _ollama(stub, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    return OllamaBackend("m1", base_url=stub.base_url, **kwargs)


def _openai(stub, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    return OpenAICompatBackend("m1", base_url=stub.base_url, **kwargs)


class TestConstruction:
    def test_model_required(self):
        for cls in (OllamaBackend, OpenAICompatBackend, HFRouterBackend):
            with pytest.raises(ValueError, match="model"):
                cls("")

    def test_default_base_urls(self):
        assert OllamaBackend("m").base_url == "http://127.0.0.1:11434"
        assert OpenAICompatBackend("m").base_url == \
            "https://api.openai.com"
        assert HFRouterBackend("m").base_url == \
            "https://router.huggingface.co"

    def test_explicit_base_url_wins_and_is_normalised(self):
        backend = OllamaBackend("m", base_url="http://host:1/")
        assert backend.base_url == "http://host:1"

    def test_name_is_the_model(self):
        assert OllamaBackend("qwen2.5:7b").name == "qwen2.5:7b"

    def test_backend_ids(self):
        assert OllamaBackend.backend_id == "ollama"
        assert OpenAICompatBackend.backend_id == "openai"
        assert HFRouterBackend.backend_id == "hf"
        assert issubclass(HFRouterBackend, OpenAICompatBackend)

    def test_sampling_fingerprint_distinguishes_params(self):
        a = SamplingParams().fingerprint()
        b = SamplingParams(temperature=0.7).fingerprint()
        assert a != b

    def test_wire_messages_shape(self):
        wire = LLMBackend.wire_messages(_request("hi", system="sys"))
        assert wire == [{"role": "system", "content": "sys"},
                        {"role": "user", "content": "hi"}]


class TestOllamaAdapter:
    def test_request_shape_and_parse(self, stub):
        stub.script([ok("the reply", 11, 7, model="served-model")])
        response = _ollama(stub).complete(_request("hi", system="sys"))
        assert response.text == "the reply"
        assert response.usage.input_tokens == 11
        assert response.usage.output_tokens == 7
        assert response.model_name == "served-model"
        seen = stub.requests[0]
        assert seen["path"] == "/api/chat"
        assert seen["payload"]["model"] == "m1"
        assert seen["payload"]["stream"] is False
        assert seen["payload"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "hi"}]
        assert seen["payload"]["options"] == {
            "temperature": 0.0, "top_p": 1.0, "num_predict": 2048}

    def test_missing_counts_fall_back_to_approx(self, stub):
        stub.script([ok("one two three")])
        request = _request("a b c d")
        response = _ollama(stub).complete(request)
        assert response.usage.input_tokens == \
            approx_token_count(request.prompt_text)
        assert response.usage.output_tokens == \
            approx_token_count("one two three")

    def test_missing_content_is_malformed(self, stub):
        stub.script([{"body": {"model": "m", "done": True}}])
        with pytest.raises(MalformedResponseError, match="message"):
            _ollama(stub).complete(_request())


class TestOpenAIAdapter:
    def test_request_shape_and_parse(self, stub):
        stub.script([ok("answer", 5, 3, model="served")])
        backend = _openai(stub, api_key="sk-test")
        response = backend.complete(_request("hi"))
        assert response.text == "answer"
        assert response.usage.input_tokens == 5
        assert response.usage.output_tokens == 3
        assert response.model_name == "served"
        seen = stub.requests[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["payload"]["model"] == "m1"
        assert seen["payload"]["temperature"] == 0.0
        assert seen["payload"]["max_tokens"] == 2048
        assert seen["authorization"] == "Bearer sk-test"

    def test_no_key_sends_no_auth_header(self, stub):
        stub.script([ok("x")])
        _openai(stub).complete(_request())
        assert stub.requests[0]["authorization"] == ""

    def test_missing_usage_falls_back_to_approx(self, stub):
        stub.script([ok("y z")])
        response = _openai(stub).complete(_request("q"))
        assert response.usage.output_tokens == approx_token_count("y z")

    def test_no_choices_is_malformed(self, stub):
        stub.script([{"body": {"model": "m", "choices": []}}])
        with pytest.raises(MalformedResponseError, match="choices"):
            _openai(stub).complete(_request())

    def test_choice_without_content_is_malformed(self, stub):
        stub.script([{"body": {"choices": [{"message": {}}]}}])
        with pytest.raises(MalformedResponseError, match="content"):
            _openai(stub).complete(_request())

    def test_hf_preset_speaks_the_same_dialect(self, stub):
        stub.script([ok("routed", 2, 2)])
        backend = HFRouterBackend("m1", base_url=stub.base_url,
                                  timeout=10.0)
        assert backend.complete(_request()).text == "routed"
        assert stub.requests[0]["path"] == "/v1/chat/completions"


class TestErrorMapping:
    def test_429_maps_to_rate_limited_with_retry_after(self, stub):
        stub.script([error(429, retry_after=1.5)])
        with pytest.raises(BackendRateLimited) as excinfo:
            _ollama(stub).complete(_request())
        assert excinfo.value.retryable
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 1.5

    def test_429_without_retry_after(self, stub):
        stub.script([error(429)])
        with pytest.raises(BackendRateLimited) as excinfo:
            _openai(stub).complete(_request())
        assert excinfo.value.retry_after is None

    def test_5xx_maps_to_server_error(self, stub):
        stub.script([error(503)])
        with pytest.raises(BackendServerError) as excinfo:
            _ollama(stub).complete(_request())
        assert excinfo.value.retryable
        assert excinfo.value.status == 503

    def test_4xx_maps_to_request_error_not_retryable(self, stub):
        stub.script([error(404)])
        with pytest.raises(BackendRequestError) as excinfo:
            _openai(stub).complete(_request())
        assert not excinfo.value.retryable
        assert excinfo.value.status == 404

    def test_undecodable_body_is_malformed(self, stub):
        stub.script([raw("<!doctype html>not json")])
        with pytest.raises(MalformedResponseError) as excinfo:
            _ollama(stub).complete(_request())
        assert excinfo.value.retryable  # flaky proxies truncate bodies

    def test_non_object_json_is_malformed(self, stub):
        stub.script([raw("[1, 2, 3]")])
        with pytest.raises(MalformedResponseError, match="object"):
            _openai(stub).complete(_request())

    def test_read_timeout_maps_to_backend_timeout(self, stub):
        stub.script([{"delay": 1.0}])
        with pytest.raises(BackendTimeout):
            _ollama(stub, timeout=0.2).complete(_request())

    def test_unreachable_endpoint_maps_to_connection_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens on this port now
        backend = OllamaBackend("m", base_url=f"http://127.0.0.1:{port}",
                                timeout=2.0)
        with pytest.raises(BackendConnectionError):
            backend.complete(_request())

    def test_exhausted_deadline_refuses_to_send(self, stub):
        backend = _ollama(stub)
        with use_deadline(0.0):
            with pytest.raises(BackendTimeout, match="deadline"):
                backend.complete(_request())
        assert stub.requests == []  # never reached the wire

    def test_every_backend_error_carries_the_backend_label(self, stub):
        stub.script([error(500)])
        with pytest.raises(BackendError) as excinfo:
            _ollama(stub).complete(_request())
        assert excinfo.value.backend == "ollama"


class TestRegistry:
    def test_backend_names(self):
        assert backend_names() == ("synthetic", "ollama", "openai",
                                   "hf", "fixture")

    def test_create_backend_dispatch(self):
        assert isinstance(create_backend("ollama", "m"), OllamaBackend)
        assert isinstance(create_backend("hf", "m"), HFRouterBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("bard", "m")

    def test_is_live_backend(self):
        assert is_live_backend("ollama")
        assert is_live_backend("fixture+hf")
        assert not is_live_backend("")
        assert not is_live_backend("synthetic")
        assert not is_live_backend("fixture")
        assert not is_live_backend("fixture+synthetic")
