from __future__ import annotations

import pytest

from conftest import mock_provider
from socialagent.core import (
    ContentItem,
    PromptArtifact,
    ReasoningStrategy,
    StrategyKind,
    Transcript,
)
from socialagent.reasoner import COT_PHRASE, REFLECTION_INSTRUCTION, reason

SELF_REFLECTION = ReasoningStrategy(StrategyKind.SELF_REFLECTION)


def make_prompt(*texts: str) -> PromptArtifact:
    return PromptArtifact(
        system_role="analyst",
        segments=tuple(ContentItem.from_text(t) for t in texts),
    )


def decorate(prompt: PromptArtifact, strategy: ReasoningStrategy) -> PromptArtifact:
    """``reason`` under a local strategy, with a provider that has no reply
    to give: the decoration makes no call."""
    provider = mock_provider()
    result = reason(prompt, strategy, provider, transcript=Transcript())
    assert provider.call_log == []
    return result


class TestApplyStrategy:
    """The local strategies' decoration, which ``reason`` applies."""

    def test_none_returns_input_unchanged(self):
        prompt = make_prompt("goal", "content")
        assert decorate(prompt, ReasoningStrategy()) is prompt

    def test_zero_shot_cot_appends_exact_phrase_last(self):
        prompt = make_prompt("goal")
        decorated = decorate(prompt, ReasoningStrategy.zero_shot_cot())
        assert decorated.text_segments()[-1] == COT_PHRASE

    def test_cot_applied_twice_appends_once(self):
        prompt = make_prompt("goal")
        once = decorate(prompt, ReasoningStrategy.zero_shot_cot())
        twice = decorate(once, ReasoningStrategy.zero_shot_cot())
        assert twice.text_segments().count(COT_PHRASE) == 1

    def test_few_shot_prepends_demonstrations(self):
        prompt = make_prompt("goal")
        strategy = ReasoningStrategy(StrategyKind.FEW_SHOT, (("ex-in", "ex-out"),))
        decorated = decorate(prompt, strategy)
        first = decorated.text_segments()[0]
        assert "ex-in" in first and "ex-out" in first
        assert decorated.text_segments()[-1] == "goal"


class TestReason:
    def test_none_identity_and_zero_calls(self):
        provider = mock_provider()
        prompt = make_prompt("goal")
        result = reason(prompt, ReasoningStrategy(), provider, transcript=Transcript())
        assert result is prompt
        assert provider.call_log == []

    def test_cot_zero_calls_with_phrase(self):
        provider = mock_provider()
        result = reason(
            make_prompt("goal"),
            ReasoningStrategy.zero_shot_cot(),
            provider,
            transcript=Transcript(),
        )
        assert provider.call_log == []
        assert result.text_segments()[-1] == COT_PHRASE

    def test_few_shot_zero_calls(self):
        provider = mock_provider()
        strategy = ReasoningStrategy(StrategyKind.FEW_SHOT, (("q", "a"),))
        reason(make_prompt("goal"), strategy, provider, transcript=Transcript())
        assert provider.call_log == []

    def test_self_reflection_two_calls_with_trace_and_reflection(self):
        provider = mock_provider("trace T", "reflection R")
        result = reason(make_prompt("goal"), SELF_REFLECTION, provider, transcript=Transcript())
        joined = "\n".join(result.text_segments())
        assert "trace T" in joined and "reflection R" in joined
        assert len(provider.call_log) == 2
        # reflection round carries the exact instruction over the trace
        second_request = provider.call_log[1][0]
        assert REFLECTION_INSTRUCTION in second_request.flattened()
        assert "trace T" in second_request.flattened()
        # the trace round used the CoT-decorated prompt
        assert COT_PHRASE in provider.call_log[0][0].flattened()

    def test_self_reflection_output_keeps_original_without_cot_phrase(self):
        provider = mock_provider("trace", "reflection")
        result = reason(make_prompt("goal"), SELF_REFLECTION, provider, transcript=Transcript())
        assert result.text_segments()[0] == "goal"
        assert COT_PHRASE not in result.text_segments()

    def test_cot_and_reflection_two_calls_and_phrase_retained(self):
        provider = mock_provider("trace T", "reflection R")
        result = reason(
            make_prompt("goal"),
            ReasoningStrategy.cot_and_reflection(),
            provider,
            transcript=Transcript(),
        )
        assert len(provider.call_log) == 2
        assert COT_PHRASE in result.text_segments()
        joined = "\n".join(result.text_segments())
        assert "trace T" in joined and "reflection R" in joined

    def test_original_segments_preserved_verbatim(self):
        provider = mock_provider("trace", "reflection")
        original = make_prompt("first segment", "second segment")
        for strategy, fresh in (
            (ReasoningStrategy.zero_shot_cot(), provider),
            (ReasoningStrategy.cot_and_reflection(), mock_provider("t", "r")),
        ):
            result = reason(original, strategy, fresh, transcript=Transcript())
            texts = result.text_segments()
            assert "first segment" in texts and "second segment" in texts

    def test_call_counts_per_strategy_contract(self):
        expected = {
            StrategyKind.NONE: 0,
            StrategyKind.FEW_SHOT: 0,
            StrategyKind.ZERO_SHOT_COT: 0,
            StrategyKind.SELF_REFLECTION: 2,
            StrategyKind.COT_AND_REFLECTION: 2,
        }
        for kind, count in expected.items():
            examples = (("q", "a"),) if kind is StrategyKind.FEW_SHOT else ()
            strategy = ReasoningStrategy(kind, examples)
            provider = mock_provider("one", "two")
            reason(make_prompt("goal"), strategy, provider, transcript=Transcript())
            assert len(provider.call_log) == count, kind

    def test_transcript_records_local_strategies_once(self):
        transcript = Transcript()
        reason(
            make_prompt("goal"),
            ReasoningStrategy.zero_shot_cot(),
            mock_provider(),
            transcript=transcript,
        )
        assert transcript.signature() == (("reasoner", "reason"),)

    def test_transcript_records_each_reflection_call(self):
        transcript = Transcript()
        reason(
            make_prompt("goal"),
            SELF_REFLECTION,
            mock_provider("t", "r"),
            transcript=transcript,
        )
        assert transcript.signature() == (
            ("reasoner", "reason"),
            ("reasoner", "reason"),
        )

    @pytest.mark.parametrize(
        "strategy, cot",
        [
            (SELF_REFLECTION, ()),
            (ReasoningStrategy.cot_and_reflection(), (ContentItem.from_text(COT_PHRASE),)),
        ],
        ids=["self_reflection", "cot_and_reflection"],
    )
    def test_reflection_result_segments_are_pinned(self, strategy, cot):
        original = (
            ContentItem.from_text("goal"),
            ContentItem.from_image("a.png", "image/png"),
            ContentItem.from_text("context"),
        )
        provider = mock_provider("trace T", "reflection R", supports_images=True)
        result = reason(
            PromptArtifact("analyst", original), strategy, provider, transcript=Transcript()
        )
        assert result == PromptArtifact(
            "analyst",
            original
            + cot
            + (
                ContentItem.from_text("Reasoning trace:\ntrace T"),
                ContentItem.from_text("Reflection on the trace:\nreflection R"),
            ),
        )
        (trace_request, _), (reflection_request, _) = provider.call_log
        assert trace_request.messages == original + (ContentItem.from_text(COT_PHRASE),)
        assert reflection_request.messages == (
            ContentItem.from_text(REFLECTION_INSTRUCTION),
            ContentItem.from_text("trace T"),
        )
