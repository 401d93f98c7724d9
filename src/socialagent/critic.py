"""Critique of competing plans (verdict + feedback) and refinement of the
critique into corrective planner instructions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# digest goes unused here, but bench/spans.py wraps critic.digest
from .core import (
    ContentItem,
    EnvironmentContext,
    Plan,
    Task,
    Transcript,
    UnitRole,
    digest,
)
from .errors import CritiqueParseError, InvariantError, NotActionableError
from .providers import Provider, invoke

VERDICT_PREFIX = "VERDICT:"
FEEDBACK_PREFIX = "FEEDBACK:"


class PlanChoice(Enum):
    PLAN_A = "plan_a"
    PLAN_B = "plan_b"


@dataclass(frozen=True)
class Critique:
    selected: PlanChoice
    feedback: str
    raw: str

    @property
    def actionable(self) -> bool:
        return bool(self.feedback)


@dataclass(frozen=True)
class RefinedInstructions:
    instructions: str

    def __post_init__(self) -> None:
        if not self.instructions.strip():
            raise InvariantError("refined instructions must be non-empty")


def parse_critique(raw: str) -> Critique:
    """Parse the mandatory verdict line and the feedback block. Pure and
    deterministic on the raw critic output."""
    verdict: PlanChoice | None = None
    feedback_lines: list[str] = []
    collecting = False
    for line in raw.splitlines():
        stripped = line.strip()
        if verdict is None and stripped.upper().startswith(VERDICT_PREFIX):
            value = stripped[len(VERDICT_PREFIX) :].strip().upper()
            if value == "A":
                verdict = PlanChoice.PLAN_A
            elif value == "B":
                verdict = PlanChoice.PLAN_B
            else:
                raise CritiqueParseError(f"verdict must be A or B, got {value!r}")
            continue
        if stripped.upper().startswith(FEEDBACK_PREFIX):
            collecting = True
            remainder = stripped[len(FEEDBACK_PREFIX) :].strip()
            if remainder:
                feedback_lines.append(remainder)
            continue
        if collecting:
            feedback_lines.append(line)
    if verdict is None:
        raise CritiqueParseError("critic output lacks a verdict line")
    feedback = "\n".join(feedback_lines).strip()
    return Critique(selected=verdict, feedback=feedback, raw=raw)


def criticize(
    env: EnvironmentContext,
    task: Task,
    plan_a: Plan,
    plan_b: Plan,
    provider: Provider,
    *,
    divergence: float,
    system_role: str = "",
    transcript: Transcript,
) -> Critique:
    """One provider call presenting both plans, and the ``divergence`` of
    the gate that fired, under a task-related decision rubric; the critic
    may prefer either plan."""
    segments = [
        ContentItem.from_text(
            "Two candidate plans were produced for the task below. Judge which "
            "one better addresses the task: coverage of the goal, suitability of "
            "the chosen actions, and clarity of the per-action instructions."
        ),
        ContentItem.from_text(f"Task:\n{task.goal}"),
    ]
    if env.description:
        segments.append(ContentItem.from_text(f"Environment:\n{env.description}"))
    segments.extend(
        [
            ContentItem.from_text(
                f"The plans diverge (Jensen-Shannon divergence {divergence:.4f})."
            ),
            ContentItem.from_text(f"Plan A (planner):\n{plan_a.raw}"),
            ContentItem.from_text(f"Plan B (optimizer):\n{plan_b.raw}"),
            ContentItem.from_text(
                f"Reply with a line '{VERDICT_PREFIX} A' or '{VERDICT_PREFIX} B', "
                f"then a '{FEEDBACK_PREFIX}' block with concrete improvements "
                "(leave it empty if the selected plan needs none)."
            ),
        ]
    )
    text = invoke(
        provider, UnitRole.CRITIC, "criticize", system_role, tuple(segments), transcript=transcript
    )
    return parse_critique(text)


def refine(
    env: EnvironmentContext,
    task: Task,
    critique: Critique,
    provider: Provider,
    *,
    system_role: str = "",
    transcript: Transcript,
) -> RefinedInstructions:
    """Translate actionable critique feedback into corrective instructions
    for the planner. Exactly one provider call; rejected without one when
    the critique carries no feedback."""
    if not critique.actionable:
        raise NotActionableError("critique has no actionable feedback to refine")
    segments = [
        ContentItem.from_text(
            "Turn the review feedback below into direct, actionable instructions "
            "for the planner to produce a better plan."
        ),
        ContentItem.from_text(f"Task:\n{task.goal}"),
    ]
    if env.description:
        segments.append(ContentItem.from_text(f"Environment:\n{env.description}"))
    segments.append(ContentItem.from_text(f"Review feedback:\n{critique.feedback}"))
    text = invoke(
        provider, UnitRole.REFINER, "refine", system_role, tuple(segments), transcript=transcript
    )
    return RefinedInstructions(instructions=text)
