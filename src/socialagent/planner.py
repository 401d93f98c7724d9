"""Plan production: prompting the planner model and parsing its fenced
plan block into an ordered action sequence."""

from __future__ import annotations

import json
import re
from collections.abc import Iterable

from .canonical import parse_text
from .core import (
    ACTION_NAMES_BY_ID,
    ActionSpec,
    ContentItem,
    Plan,
    PromptArtifact,
    Task,
    Transcript,
    UnitRole,
)
from .errors import InvariantError, MalformedInputError, PlanParseError
from .providers import Provider, invoke

_FENCED_BLOCK = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)

# one menu line per action id, beside core.ACTION_NAMES_BY_ID
_ACTION_LINES = {
    1: "  1 question answering: answers natural-language questions about the content",
    2: "  2 visual question answering: answers questions about text-rich visual content",
    3: "  3 title generation: creates a short headline from the input",
    4: "  4 categorization: assigns the content to predefined categories",
}

_BLOCK_DIRECTIVE = (
    "After deliberating, emit exactly one fenced block of the form:\n"
    "```json\n"
    '{"actions": [{"id": <action id>, "instructions": "<what to do>"}], '
    '"rationale": "<why>"}\n'
    "```"
)


def plan_block(actions: Iterable[tuple[int, str]], rationale: str, prose: str) -> str:
    """Write the grammar ``parse_plan`` reads: ``prose``, then one fenced
    JSON block of the (id, instructions) actions and the rationale."""
    entries = [{"id": i, "instructions": text} for i, text in actions]
    payload = json.dumps({"actions": entries, "rationale": rationale})
    return f"{prose}\n```json\n{payload}\n```"


def parse_plan(raw: str, allowed: frozenset[int]) -> Plan:
    """Extract the first fenced plan block from model output and validate
    its action ids. Pure: same raw + allowed always gives the same result."""
    match = _FENCED_BLOCK.search(raw)
    if match is None:
        raise PlanParseError("no plan block found in planner output")
    try:
        payload = parse_text(match.group(1), "plan block")
    except MalformedInputError as exc:
        raise PlanParseError(str(exc)) from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("actions"), list):
        raise PlanParseError("plan block must carry an 'actions' array")
    entries = payload["actions"]
    if not entries:
        raise PlanParseError("plan block contains an empty actions array")
    actions = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise PlanParseError(f"action {i} is not an object")
        action_id = entry.get("id")
        if type(action_id) is not int or action_id not in ACTION_NAMES_BY_ID:
            raise PlanParseError(f"unknown action id {action_id!r}")
        if action_id not in allowed:
            raise PlanParseError(f"disallowed action {action_id}")
        instructions = entry.get("instructions")
        if not isinstance(instructions, str) or not instructions.strip():
            raise PlanParseError(f"action {i} lacks instructions")
        actions.append(ActionSpec(action_id, instructions))
    rationale = payload.get("rationale")
    rationale = rationale if isinstance(rationale, str) else ""
    return Plan(actions=tuple(actions), rationale=rationale, raw=raw)


def _planning_segments(task: Task, reasoned: PromptArtifact) -> tuple[ContentItem, ...]:
    """The menu describes only the actions the task permits."""
    permitted = sorted(task.permitted_actions())
    return (
        ContentItem.from_text(
            "Plan how to complete the task below as an ordered sequence of actions."
        ),
        ContentItem.from_text(
            "\n".join(["Available actions:", *(_ACTION_LINES[i] for i in permitted)])
        ),
        ContentItem.from_text("Allowed action ids: " + ", ".join(map(str, permitted))),
        *reasoned.segments,
        ContentItem.from_text(_BLOCK_DIRECTIVE),
    )


def plan(
    task: Task,
    reasoned: PromptArtifact,
    provider: Provider,
    *,
    transcript: Transcript,
    operation: str = "plan",
) -> Plan:
    """One provider call producing a validated Plan; the raw model output is
    kept verbatim on the result. The reasoned prompt carries the environment
    and, on a replan, the refiner's corrective instructions (see
    ``engine.create_task_prompt``); a replan records itself under operation
    "replan"."""
    if task.goal not in "\n".join(reasoned.text_segments()):
        raise InvariantError("reasoned prompt does not carry the task goal")
    text = invoke(
        provider,
        UnitRole.PLANNER,
        operation,
        reasoned.system_role,
        _planning_segments(task, reasoned),
        transcript=transcript,
    )
    return parse_plan(text, task.permitted_actions())
