"""LLM base layer: messages, usage metering, token counting."""

import pytest
from hypothesis import given, strategies as st

from repro.llm import (ChatMessage, ChatRequest, GenerationIntent,
                       MeteredClient, Usage, UsageMeter, approx_token_count,
                       usage_for)


class TestChatMessage:
    def test_valid_roles(self):
        for role in ("system", "user", "assistant"):
            assert ChatMessage(role, "x").role == role

    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")


class TestUsage:
    def test_addition(self):
        total = Usage(10, 5) + Usage(3, 2)
        assert total == Usage(13, 7)
        assert total.total_tokens == 20

    def test_meter_accumulates_by_kind(self):
        meter = UsageMeter()
        meter.record("driver", Usage(100, 50))
        meter.record("driver", Usage(10, 5))
        meter.record("checker", Usage(1, 1))
        assert meter.total == Usage(111, 56)
        assert meter.by_kind()["driver"] == Usage(110, 55)
        assert meter.request_count == 3

    def test_meter_merge(self):
        a = UsageMeter()
        a.record("x", Usage(1, 1))
        b = UsageMeter()
        b.record("x", Usage(2, 2))
        b.record("y", Usage(3, 3))
        a.merge(b)
        assert a.total == Usage(6, 6)
        assert a.request_count == 3


class TestTokenCounting:
    def test_empty(self):
        assert approx_token_count("") == 0

    def test_short_words_one_token(self):
        assert approx_token_count("the cat") == 2

    def test_long_word_splits(self):
        assert approx_token_count("internationalization") == 5  # 20 chars

    def test_punctuation_counts(self):
        assert approx_token_count("a, b") == 3

    def test_code_like_text(self):
        count = approx_token_count("assign out = a + b;")
        assert 5 <= count <= 10

    @given(st.text(min_size=0, max_size=500))
    def test_nonnegative_and_bounded(self, text):
        count = approx_token_count(text)
        assert count >= 0
        assert count <= max(1, len(text))  # never more than chars

    @given(st.text(min_size=1, max_size=200),
           st.text(min_size=1, max_size=200))
    def test_superadditive_under_concat_with_space(self, a, b):
        # Concatenating with a separator never produces fewer tokens
        # than the larger side.
        combined = approx_token_count(a + " " + b)
        assert combined >= max(approx_token_count(a) // 2,
                               approx_token_count(b) // 2)


class TestUsageFor:
    @given(st.lists(st.text(st.one_of(st.sampled_from(" \t\n\r\u00a0"),
                                      st.characters()), max_size=60),
                    max_size=6),
           st.text(max_size=60))
    def test_input_tokens_equal_joined_count(self, contents, reply):
        messages = [ChatMessage("user", text) for text in contents]
        usage = usage_for(messages, reply)
        assert usage.input_tokens == approx_token_count(
            "\n".join(m.content for m in messages))
        assert usage.output_tokens == approx_token_count(reply)

    def test_empty_whitespace_and_non_ascii(self):
        messages = [ChatMessage("system", ""), ChatMessage("user", "  \n\t"),
                    ChatMessage("assistant", "zähler ≥ 4 ok"),
                    ChatMessage("user", "zähler ≥ 4 ok")]
        assert usage_for(messages, "").input_tokens == approx_token_count(
            "\n".join(m.content for m in messages))
        assert usage_for([], "") == Usage(0, 0)


class TestMeteredClient:
    class _Echo:
        name = "echo-model"

        def complete(self, request):
            from repro.llm import ChatResponse
            text = request.messages[-1].content.upper()
            return ChatResponse(text, usage_for(request.messages, text))

    def test_metering_wraps_client(self):
        meter = UsageMeter()
        client = MeteredClient(self._Echo(), meter)
        request = ChatRequest(
            (ChatMessage("user", "hello world"),),
            GenerationIntent("driver", "t"))
        response = client.complete(request)
        assert response.text == "HELLO WORLD"
        assert meter.total.input_tokens > 0
        assert meter.by_kind()["driver"].output_tokens > 0
        assert client.name == "echo-model"

class TestUsageMeterConcurrency:
    """Live-backend fan-out hits one meter from many threads; totals
    must stay exact and meters must survive pickling (they travel
    inside campaign work results)."""

    def test_concurrent_records_are_exact(self):
        import threading

        meter = UsageMeter()
        threads_n, per_thread = 8, 250

        def hammer(kind):
            for _ in range(per_thread):
                meter.record(kind, Usage(1, 2))

        threads = [threading.Thread(target=hammer, args=(f"k{i % 4}",))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = threads_n * per_thread
        assert meter.request_count == expected
        assert meter.total == Usage(expected, 2 * expected)
        by_kind = meter.by_kind()
        assert sum(u.input_tokens for u in by_kind.values()) == expected

    def test_concurrent_merge_into_shared_meter(self):
        import threading

        target = UsageMeter()

        def contribute():
            local = UsageMeter()
            for _ in range(100):
                local.record("driver", Usage(1, 1))
            target.merge(local)

        threads = [threading.Thread(target=contribute) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert target.total == Usage(600, 600)
        assert target.request_count == 600

    def test_pickle_round_trip_rebuilds_the_lock(self):
        import pickle

        meter = UsageMeter()
        meter.record("driver", Usage(5, 7))
        meter.record("correct", Usage(1, 1))

        clone = pickle.loads(pickle.dumps(meter))
        assert clone.total == meter.total
        assert clone.by_kind() == meter.by_kind()
        assert clone.request_count == 2
        # The rebuilt lock must actually work.
        clone.record("driver", Usage(1, 0))
        assert clone.total == Usage(7, 8)
