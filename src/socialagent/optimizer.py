"""Textual-gradient-descent loop: forward evaluation, text loss, feedback
gradients, and variable updates, applied to plans and actor responses."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    ContentItem,
    DEFAULT_EARLY_STOP_MARKER,
    PromptArtifact,
    Transcript,
    UnitRole,
)
from .errors import InvariantError
from .providers import Provider, invoke

DEFAULT_TEXT_LOSS = (
    "critical evaluation instructions and analysis of the reflected input "
    "along with the initial questions"
)


@dataclass(frozen=True)
class Variable:
    """The text under optimization, with every prior value kept in order."""

    value: str
    role_note: str = "text under optimization"
    history: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "history", tuple(self.history))
        if not self.value.strip():
            raise InvariantError("variable value must be non-empty")


@dataclass(frozen=True)
class GradientNote:
    """Feedback on improving the variable; the textual gradient."""

    feedback: str

    def __post_init__(self) -> None:
        if not self.feedback.strip():
            raise InvariantError("gradient feedback must be non-empty")


def forward(
    variable: Variable,
    context: PromptArtifact,
    provider: Provider,
    *,
    transcript: Transcript,
) -> str:
    """Forward pass: one provider call producing the prediction the current
    variable value yields for the task context."""
    segments = context.segments + (
        ContentItem.from_text(f"Candidate {variable.role_note}:\n{variable.value}"),
        ContentItem.from_text(
            "Produce the response this candidate yields for the task above."
        ),
    )
    return invoke(
        provider,
        UnitRole.OPTIMIZER,
        "forward",
        context.system_role,
        segments,
        transcript=transcript,
    )


def compute_loss(
    prediction: str,
    questions: tuple[str, ...],
    provider: Provider,
    *,
    system_role: str = "",
    transcript: Transcript,
) -> str:
    """One provider call judging the prediction by ``DEFAULT_TEXT_LOSS``
    against the task's initial questions (no segment when there are none)."""
    if not prediction.strip():
        raise InvariantError("prediction must be non-empty")
    segments = [ContentItem.from_text(DEFAULT_TEXT_LOSS)]
    if questions:
        segments.append(
            ContentItem.from_text("Initial questions:\n" + "\n".join(questions))
        )
    segments.append(ContentItem.from_text(f"Prediction:\n{prediction}"))
    return invoke(
        provider,
        UnitRole.OPTIMIZER,
        "compute_loss",
        system_role,
        tuple(segments),
        transcript=transcript,
    )


def gradient(
    variable: Variable,
    prediction: str,
    evaluation: str,
    provider: Provider,
    *,
    system_role: str = "",
    transcript: Transcript,
) -> GradientNote:
    """One provider call turning (variable, prediction, evaluation) into
    concrete improvement feedback."""
    if not prediction.strip() or not evaluation.strip():
        raise InvariantError("gradient requires a prediction and an evaluation")
    segments = (
        ContentItem.from_text(
            "Below are a candidate under optimization, the prediction it "
            "produced, and a critical evaluation of that prediction."
        ),
        ContentItem.from_text(f"Candidate ({variable.role_note}):\n{variable.value}"),
        ContentItem.from_text(f"Prediction:\n{prediction}"),
        ContentItem.from_text(f"Evaluation:\n{evaluation}"),
        ContentItem.from_text(
            "Give concrete, actionable feedback on how to improve the candidate."
        ),
    )
    text = invoke(
        provider, UnitRole.OPTIMIZER, "gradient", system_role, segments, transcript=transcript
    )
    return GradientNote(feedback=text)


def step(
    variable: Variable,
    grad: GradientNote,
    provider: Provider,
    *,
    system_role: str = "",
    transcript: Transcript,
) -> Variable:
    """One provider call rewriting the variable with the feedback applied;
    the previous value is pushed onto the history."""
    segments = (
        ContentItem.from_text(
            f"Rewrite the following {variable.role_note} by applying the feedback."
        ),
        ContentItem.from_text(f"Current version:\n{variable.value}"),
        ContentItem.from_text(f"Feedback:\n{grad.feedback}"),
        ContentItem.from_text(
            "Respond with only the improved text, or with the single marker "
            f"{DEFAULT_EARLY_STOP_MARKER} if no further improvement is possible."
        ),
    )
    text = invoke(
        provider, UnitRole.OPTIMIZER, "step", system_role, segments, transcript=transcript
    )
    return replace(variable, value=text, history=variable.history + (variable.value,))


def optimize(
    initial: Variable,
    context: PromptArtifact,
    questions: tuple[str, ...],
    iterations: int,
    provider: Provider,
    *,
    transcript: Transcript,
) -> Variable:
    """Run the full loop: iterations of forward, loss, gradient, step,
    stopping early when a step output carries the early-stop marker."""
    if iterations < 1:
        raise InvariantError("iterations must be >= 1")
    variable = initial
    system_role = context.system_role
    for _ in range(iterations):
        prediction = forward(variable, context, provider, transcript=transcript)
        evaluation = compute_loss(
            prediction, questions, provider, system_role=system_role, transcript=transcript
        )
        grad = gradient(
            variable,
            prediction,
            evaluation,
            provider,
            system_role=system_role,
            transcript=transcript,
        )
        variable = step(
            variable, grad, provider, system_role=system_role, transcript=transcript
        )
        if DEFAULT_EARLY_STOP_MARKER in variable.value:
            break
    return variable


def resolved_value(variable: Variable) -> str:
    """The usable text of an optimized variable: when the loop halted on the
    marker, the last pre-marker value is the result."""
    if DEFAULT_EARLY_STOP_MARKER in variable.value and variable.history:
        return variable.history[-1]
    return variable.value
