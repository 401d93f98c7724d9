from __future__ import annotations

import pytest

from conftest import mock_provider
from socialagent.core import (
    ActionSpec,
    EnvironmentContext,
    Plan,
    Task,
    Transcript,
    digest,
)
from socialagent.critic import (
    Critique,
    PlanChoice,
    RefinedInstructions,
    criticize,
    parse_critique,
    refine,
)
from socialagent.errors import CritiqueParseError, NotActionableError


def make_plan(raw: str) -> Plan:
    return Plan(actions=(ActionSpec(1, "answer"),), raw=raw)


TASK = Task(id="t", goal="answer the question")
ENV = EnvironmentContext()


class TestParseCritique:
    def test_verdict_a_with_feedback(self):
        critique = parse_critique("VERDICT: A\nFEEDBACK: tighten step 2")
        assert critique.selected is PlanChoice.PLAN_A
        assert critique.feedback == "tighten step 2"
        assert critique.actionable is True

    def test_verdict_b_with_empty_feedback_not_actionable(self):
        critique = parse_critique("VERDICT: B\nFEEDBACK:")
        assert critique.selected is PlanChoice.PLAN_B
        assert critique.feedback == ""
        assert critique.actionable is False

    def test_missing_verdict_is_a_parse_error(self):
        with pytest.raises(CritiqueParseError):
            parse_critique("no verdict")

    def test_unknown_verdict_value_rejected(self):
        with pytest.raises(CritiqueParseError):
            parse_critique("VERDICT: C")

    def test_multiline_feedback_collected(self):
        critique = parse_critique("VERDICT: A\nFEEDBACK: first line\nsecond line")
        assert critique.feedback == "first line\nsecond line"

    def test_parse_is_deterministic(self):
        raw = "VERDICT: B\nFEEDBACK: merge actions"
        assert parse_critique(raw) == parse_critique(raw)

    def test_raw_preserved(self):
        raw = "VERDICT: A\nFEEDBACK: x"
        assert parse_critique(raw).raw == raw


class TestCriticize:
    def test_scripted_verdict_parsed(self):
        provider = mock_provider("VERDICT: A\nFEEDBACK: tighten step 2")
        critique = criticize(
            ENV,
            TASK,
            make_plan("plan a"),
            make_plan("plan b"),
            provider,
            divergence=0.2,
            transcript=Transcript(),
        )
        assert critique.selected is PlanChoice.PLAN_A
        assert critique.actionable

    def test_prompt_presents_both_plans_and_divergence(self):
        provider = mock_provider("VERDICT: B\nFEEDBACK:")
        criticize(
            ENV,
            TASK,
            make_plan("PLAN-A-TEXT"),
            make_plan("PLAN-B-TEXT"),
            provider,
            divergence=0.42,
            transcript=Transcript(),
        )
        flattened = provider.call_log[0][0].flattened()
        assert "PLAN-A-TEXT" in flattened and "PLAN-B-TEXT" in flattened
        assert "0.4200" in flattened

    def test_exactly_one_provider_call(self):
        provider = mock_provider("VERDICT: A\nFEEDBACK: x")
        transcript = Transcript()
        criticize(
            ENV,
            TASK,
            make_plan("a"),
            make_plan("b"),
            provider,
            divergence=0.2,
            transcript=transcript,
        )
        assert transcript.signature() == (("critic", "criticize"),)

    def test_degenerate_output_raises(self):
        provider = mock_provider("no verdict")
        with pytest.raises(CritiqueParseError):
            criticize(
                ENV,
                TASK,
                make_plan("a"),
                make_plan("b"),
                provider,
                divergence=0.2,
                transcript=Transcript(),
            )


class TestRefine:
    def actionable_critique(self) -> Critique:
        return parse_critique("VERDICT: A\nFEEDBACK: merge actions 1 and 2")

    def test_scripted_instructions_pass_through(self):
        provider = mock_provider("Revise plan: merge actions 1 and 2")
        refined = refine(ENV, TASK, self.actionable_critique(), provider, transcript=Transcript())
        assert refined.instructions == "Revise plan: merge actions 1 and 2"

    def test_not_actionable_rejected_with_zero_calls(self):
        provider = mock_provider("never used")
        critique = parse_critique("VERDICT: B\nFEEDBACK:")
        with pytest.raises(NotActionableError):
            refine(ENV, TASK, critique, provider, transcript=Transcript())
        assert provider.call_log == []

    def test_transcript_digests_the_instructions(self):
        transcript = Transcript()
        refined = refine(
            ENV, TASK, self.actionable_critique(), mock_provider("do better"), transcript=transcript
        )
        assert transcript.events[0].response_digest == digest(refined.instructions)

    def test_exactly_one_provider_call(self):
        provider = mock_provider("fix")
        transcript = Transcript()
        refine(ENV, TASK, self.actionable_critique(), provider, transcript=transcript)
        assert transcript.signature() == (("refiner", "refine"),)

    def test_feedback_forwarded_to_provider(self):
        provider = mock_provider("fix")
        refine(ENV, TASK, self.actionable_critique(), provider, transcript=Transcript())
        assert "merge actions 1 and 2" in provider.call_log[0][0].flattened()


def test_refined_instructions_require_content():
    with pytest.raises(Exception):
        RefinedInstructions(instructions="")
