"""Reasoning strategies: prompt decoration for chain-of-thought and
few-shot, a two-call provider round-trip for self-reflection."""

from __future__ import annotations

from dataclasses import replace

from .core import (
    ContentItem,
    PromptArtifact,
    ReasoningStrategy,
    StrategyKind,
    Transcript,
    UnitRole,
)
from .providers import Provider, invoke

COT_PHRASE = "let's think step by step"
REFLECTION_INSTRUCTION = "apply reflection to the following reasoning trace"

# the strategies that make no provider call
LOCAL_KINDS = (StrategyKind.NONE, StrategyKind.FEW_SHOT, StrategyKind.ZERO_SHOT_COT)


def _decorate(prompt: PromptArtifact, strategy: ReasoningStrategy) -> PromptArtifact:
    """A local strategy's prompt, made without any provider call.
    Chain-of-thought appends COT_PHRASE unless it is already the last text
    segment, few-shot prepends one demonstration per example, and none
    returns ``prompt`` itself."""
    if strategy.kind is StrategyKind.ZERO_SHOT_COT:
        texts = prompt.text_segments()
        if texts and texts[-1] == COT_PHRASE:
            return prompt
        return prompt.with_segments(ContentItem.from_text(COT_PHRASE))
    if strategy.kind is StrategyKind.FEW_SHOT:
        demos = tuple(
            ContentItem.from_text(f"Example input:\n{src}\nExample output:\n{out}")
            for src, out in strategy.examples
        )
        return replace(prompt, segments=demos + prompt.segments)
    return prompt


def reason(
    prompt: PromptArtifact,
    strategy: ReasoningStrategy,
    provider: Provider,
    *,
    transcript: Transcript,
) -> PromptArtifact:
    """Produce the reasoned prompt consumed by planner, actor, and
    optimizer. Local strategies make zero provider calls. Reflection
    variants make exactly two: a trace on the CoT-decorated prompt, then a
    reflection on that trace; the result appends both to the original
    prompt (self_reflection) or to the CoT-decorated one
    (cot_and_reflection)."""
    if strategy.kind in LOCAL_KINDS:
        decorated = _decorate(prompt, strategy)
        transcript.record(
            UnitRole.REASONER,
            "reason",
            "\n".join(prompt.text_segments()),
            "\n".join(decorated.text_segments()),
        )
        return decorated
    traced = _decorate(prompt, ReasoningStrategy.zero_shot_cot())
    trace = invoke(
        provider,
        UnitRole.REASONER,
        "reason",
        traced.system_role,
        traced.segments,
        transcript=transcript,
    )
    reflection = invoke(
        provider,
        UnitRole.REASONER,
        "reason",
        prompt.system_role,
        (ContentItem.from_text(REFLECTION_INSTRUCTION), ContentItem.from_text(trace)),
        transcript=transcript,
    )
    base = traced if strategy.kind is StrategyKind.COT_AND_REFLECTION else prompt
    return base.with_segments(
        ContentItem.from_text(f"Reasoning trace:\n{trace}"),
        ContentItem.from_text(f"Reflection on the trace:\n{reflection}"),
    )
