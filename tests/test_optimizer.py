from __future__ import annotations

import pytest

from conftest import mock_provider
from socialagent.core import ContentItem, PromptArtifact, Transcript
from socialagent.errors import InvariantError, MockScriptExhaustedError
from socialagent.optimizer import (
    DEFAULT_TEXT_LOSS,
    GradientNote,
    Variable,
    compute_loss,
    forward,
    gradient,
    optimize,
    resolved_value,
    step,
)
from socialagent.protocol import optimizer_block


def context_prompt() -> PromptArtifact:
    return PromptArtifact(
        system_role="optimizer context",
        segments=(ContentItem.from_text("the task context"),),
    )


class TestVariableAndConfig:
    def test_empty_variable_rejected(self):
        with pytest.raises(InvariantError):
            Variable(value="  ")

    def test_iterations_zero_rejected(self):
        provider = mock_provider()
        with pytest.raises(InvariantError):
            optimize(Variable("v"), context_prompt(), (), 0, provider, transcript=Transcript())
        assert provider.call_log == []

    def test_empty_gradient_rejected(self):
        with pytest.raises(InvariantError):
            GradientNote(feedback=" ")


class TestSingleOperations:
    def test_forward_passes_through_script(self):
        provider = mock_provider("answer A")
        prediction = forward(Variable("v"), context_prompt(), provider, transcript=Transcript())
        assert prediction == "answer A"
        assert len(provider.call_log) == 1

    def test_forward_transcript_count(self):
        transcript = Transcript()
        forward(Variable("v"), context_prompt(), mock_provider("y"), transcript=transcript)
        assert transcript.signature() == (("optimizer", "forward"),)

    def test_compute_loss_contains_default_instruction_verbatim(self):
        provider = mock_provider("evaluation: missing evidence")
        result = compute_loss("some prediction", (), provider, transcript=Transcript())
        assert result == "evaluation: missing evidence"
        # no questions, no "Initial questions:" segment
        texts = tuple(item.text for item in provider.call_log[0][0].messages)
        assert texts == (DEFAULT_TEXT_LOSS, "Prediction:\nsome prediction")

    def test_compute_loss_lists_the_initial_questions(self):
        provider = mock_provider("evaluation")
        compute_loss("p", ("the goal", "the steps"), provider, transcript=Transcript())
        texts = tuple(item.text for item in provider.call_log[0][0].messages)
        questions = "Initial questions:\nthe goal\nthe steps"
        assert texts == (DEFAULT_TEXT_LOSS, questions, "Prediction:\np")

    def test_compute_loss_empty_prediction_rejected(self):
        with pytest.raises(InvariantError):
            compute_loss("  ", (), mock_provider("x"), transcript=Transcript())

    def test_gradient_prompt_contains_all_three_inputs_verbatim(self):
        provider = mock_provider("add citation to claim 2")
        note = gradient(
            Variable("the variable text"),
            "the prediction",
            "the evaluation",
            provider,
            transcript=Transcript(),
        )
        assert note.feedback == "add citation to claim 2"
        flattened = provider.call_log[0][0].flattened()
        for needle in ("the variable text", "the prediction", "the evaluation"):
            assert needle in flattened

    def test_gradient_empty_evaluation_rejected(self):
        with pytest.raises(InvariantError):
            gradient(Variable("v"), "pred", "", mock_provider("x"), transcript=Transcript())

    def test_step_pushes_history_and_applies_feedback(self):
        provider = mock_provider("improved text")
        updated = step(
            Variable("old text"), GradientNote("fix it"), provider, transcript=Transcript()
        )
        assert updated.value == "improved text"
        assert updated.history == ("old text",)
        assert "fix it" in provider.call_log[0][0].flattened()

    def test_history_grows_by_exactly_one_per_step(self):
        variable = Variable("v0")
        for index in range(3):
            variable = step(
                variable, GradientNote("g"), mock_provider(f"v{index + 1}"), transcript=Transcript()
            )
            assert len(variable.history) == index + 1
        assert variable.history == ("v0", "v1", "v2")


def loop_script(iterations: int) -> list[str]:
    script = []
    for i in range(iterations):
        script += [f"pred{i}", f"eval{i}", f"grad{i}", f"value{i + 1}"]
    return script


class TestOptimizeLoop:
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_call_count_is_4k_in_cycle_order(self, iterations):
        provider = mock_provider(*loop_script(iterations))
        transcript = Transcript()
        result = optimize(
            Variable("v0"),
            context_prompt(),
            (),
            iterations,
            provider,
            transcript=transcript,
        )
        assert len(provider.call_log) == 4 * iterations
        assert transcript.signature() == optimizer_block(iterations)
        assert result.value == f"value{iterations}"
        assert len(result.history) == iterations

    def test_early_stop_marker_halts_at_emitting_iteration(self):
        # 3 iterations budgeted, second step emits the marker: 8 calls total
        script = loop_script(1) + ["pred1", "eval1", "grad1", "NO_FURTHER_IMPROVEMENT"]
        provider = mock_provider(*script)
        result = optimize(
            Variable("v0"),
            context_prompt(),
            (),
            3,
            provider,
            transcript=Transcript(),
        )
        assert len(provider.call_log) == 8
        assert len(result.history) == 2
        assert result.history[0] == "v0"

    def test_marker_containment_also_stops(self):
        script = ["p", "e", "g", "done: NO_FURTHER_IMPROVEMENT possible"]
        result = optimize(
            Variable("v0"),
            context_prompt(),
            (),
            5,
            mock_provider(*script),
            transcript=Transcript(),
        )
        assert len(result.history) == 1

    def test_history_reconstructs_every_intermediate_value(self):
        provider = mock_provider(*loop_script(3))
        result = optimize(
            Variable("start"),
            context_prompt(),
            (),
            3,
            provider,
            transcript=Transcript(),
        )
        assert result.history == ("start", "value1", "value2")
        assert result.history[0] == "start"

    def test_provider_error_propagates_unwrapped(self):
        # script runs out mid second iteration (after one full step)
        provider = mock_provider(*loop_script(1), "pred1")
        exhausted = r"^mock script for 'mock' exhausted after 5 response\(s\)$"
        with pytest.raises(MockScriptExhaustedError, match=exhausted):
            optimize(
                Variable("v0"),
                context_prompt(),
                (),
                2,
                provider,
                transcript=Transcript(),
            )


class TestResolvedValue:
    def test_plain_value_passes_through(self):
        assert resolved_value(Variable("text")) == "text"

    def test_marker_value_falls_back_to_last_history_entry(self):
        variable = Variable(
            "NO_FURTHER_IMPROVEMENT", history=("first", "second")
        )
        assert resolved_value(variable) == "second"

    def test_marker_without_history_is_returned_as_is(self):
        variable = Variable("NO_FURTHER_IMPROVEMENT")
        assert resolved_value(variable) == "NO_FURTHER_IMPROVEMENT"
