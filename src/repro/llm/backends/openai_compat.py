"""Adapter for OpenAI-compatible ``/v1/chat/completions`` endpoints.

This wire shape is the de-facto standard: OpenAI itself, vLLM, llama
.cpp's server, LM Studio, OpenRouter and Ollama's compatibility layer
all speak it.  One adapter therefore covers a whole family of
endpoints.  The Hugging Face router is one of them, so
:class:`HFRouterBackend` is this adapter with a different default
endpoint and its own ``backend_id``.
"""

from __future__ import annotations

from ..base import ChatRequest, ChatResponse, Usage
from ..tokens import approx_token_count
from .base import LLMBackend
from .errors import MalformedResponseError
from .http import post_json


class OpenAICompatBackend(LLMBackend):
    """Talk to any OpenAI-compatible chat-completions endpoint."""

    backend_id = "openai"

    @classmethod
    def default_base_url(cls) -> str:
        return "https://api.openai.com"

    def _headers(self) -> dict:
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": self.wire_messages(request),
            "temperature": self.params.temperature,
            "top_p": self.params.top_p,
            "max_tokens": self.params.max_tokens,
            "stream": False,
        }
        reply = post_json(
            f"{self.base_url}/v1/chat/completions", payload,
            headers=self._headers(), timeout=self.timeout,
            backend=self.backend_id)
        choices = reply.get("choices")
        if not isinstance(choices, list) or not choices:
            raise MalformedResponseError(
                f"{self.backend_id}: reply has no choices "
                f"(keys: {sorted(reply)})", backend=self.backend_id)
        message = choices[0].get("message") \
            if isinstance(choices[0], dict) else None
        if not isinstance(message, dict) or \
                not isinstance(message.get("content"), str):
            raise MalformedResponseError(
                f"{self.backend_id}: choices[0] has no message.content",
                backend=self.backend_id)
        text = message["content"]
        usage = reply.get("usage") if isinstance(reply.get("usage"),
                                                 dict) else {}
        return ChatResponse(
            text=text,
            usage=Usage(
                input_tokens=_count(usage.get("prompt_tokens"),
                                    request.prompt_text),
                output_tokens=_count(usage.get("completion_tokens"),
                                     text)),
            model_name=str(reply.get("model", self.model)))


class HFRouterBackend(OpenAICompatBackend):
    """Talk to router.huggingface.co, which speaks the same dialect with
    a Hugging Face token as the bearer key.  Its own ``backend_id``
    keeps cached responses from the two services from aliasing."""

    backend_id = "hf"

    @classmethod
    def default_base_url(cls) -> str:
        return "https://router.huggingface.co"


def _count(value, fallback_text: str) -> int:
    if isinstance(value, int) and value >= 0:
        return value
    return approx_token_count(fallback_text)
