from __future__ import annotations

from pathlib import Path

import pytest

import socialagent
from conftest import mock_provider
from socialagent.core import (
    ActionName,
    ContentItem,
    EnvironmentContext,
    PromptArtifact,
    Task,
    Transcript,
)
from socialagent.critic import RefinedInstructions
from socialagent.engine import create_task_prompt
from socialagent.errors import InvariantError, PlanParseError
from socialagent.planner import parse_plan, plan

ALL_ACTIONS = frozenset({1, 2, 3, 4})


# an unrestricted task's menu, byte for byte: the digests of its planning
# requests (solve-actions, golden transcripts) depend on this exact text
FULL_MENU = (
    "Available actions:\n"
    "  1 question answering: answers natural-language questions about the content\n"
    "  2 visual question answering: answers questions about text-rich visual content\n"
    "  3 title generation: creates a short headline from the input\n"
    "  4 categorization: assigns the content to predefined categories"
)
MENU_HEADER, *_lines = FULL_MENU.split("\n")
MENU_LINES = dict(enumerate(_lines, start=1))


def planning_texts(provider) -> list[str]:
    """The text segments of the provider's only planning request."""
    [(request, _)] = provider.call_log
    return [item.text for item in request.messages]


def menu_and_ids(allowed: frozenset[int] | None) -> list[str]:
    """The menu and allowed-ids segments of a planning request for a task
    permitting ``allowed``."""
    task = Task(id="t", goal="answer", allowed_actions=allowed)
    first = min(task.permitted_actions())
    provider = mock_provider(block('{"actions": [{"id": %d, "instructions": "a"}]}' % first))
    plan(task, reasoned_prompt(task), provider, transcript=Transcript())
    return planning_texts(provider)[1:3]


def block(payload: str) -> str:
    return f"some deliberation first\n```json\n{payload}\n```\ntrailing prose"


def reasoned_prompt(task: Task) -> PromptArtifact:
    return PromptArtifact(
        system_role="analyst",
        segments=(ContentItem.from_text(task.goal),),
    )


class TestParsePlan:
    def test_minimal_valid_block(self):
        raw = block('{"actions": [{"id": 1, "instructions": "answer Q"}]}')
        parsed = parse_plan(raw, ALL_ACTIONS)
        assert [a.action_id for a in parsed.actions] == [1]
        assert parsed.actions[0].instructions == "answer Q"
        assert parsed.raw == raw

    def test_two_action_block_in_order(self):
        raw = block(
            '{"actions": [{"id": 3, "instructions": "title"},'
            ' {"id": 4, "instructions": "classify"}], "rationale": "r"}'
        )
        parsed = parse_plan(raw, ALL_ACTIONS)
        assert [a.name for a in parsed.actions] == [
            ActionName.TITLE_GENERATION,
            ActionName.CATEGORIZATION,
        ]
        assert parsed.rationale == "r"

    @pytest.mark.parametrize(
        "rationale",
        [
            "",
            ', "rationale": null',
            ', "rationale": ["why", {"k": true}]',
            ', "rationale": 7',
            ', "rationale": 1e400',
        ],
        ids=["missing", "null", "list", "number", "overflowing-number"],
    )
    def test_absent_rationale_reads_as_empty(self, rationale):
        raw = block('{"actions": [{"id": 1, "instructions": "answer Q"}]%s}' % rationale)
        assert parse_plan(raw, ALL_ACTIONS).rationale == ""

    def test_first_block_wins(self):
        raw = (
            block('{"actions": [{"id": 1, "instructions": "first"}]}')
            + "\n"
            + block('{"actions": [{"id": 2, "instructions": "second"}]}')
        )
        parsed = parse_plan(raw, ALL_ACTIONS)
        assert parsed.actions[0].instructions == "first"

    def test_duplicate_action_ids_allowed(self):
        raw = block(
            '{"actions": [{"id": 1, "instructions": "ask A"},'
            ' {"id": 1, "instructions": "ask B"}]}'
        )
        parsed = parse_plan(raw, ALL_ACTIONS)
        assert [a.action_id for a in parsed.actions] == [1, 1]

    def test_no_block_is_a_parse_error(self):
        with pytest.raises(PlanParseError, match="no plan block found"):
            parse_plan("no structure here", ALL_ACTIONS)

    def test_malformed_json_rejected(self):
        with pytest.raises(PlanParseError, match="malformed"):
            parse_plan(block('{"actions": [,]}'), ALL_ACTIONS)

    def test_integer_too_long_to_read_rejected(self):
        raw = block('{"actions": [{"id": ' + "1" * 5000 + ', "instructions": "x"}]}')
        with pytest.raises(PlanParseError, match="too long to read"):
            parse_plan(raw, ALL_ACTIONS)

    @pytest.mark.parametrize("action_id", ["9", "true", '"1"', "1.0"])
    def test_unknown_action_id_rejected(self, action_id):
        raw = block('{"actions": [{"id": ' + action_id + ', "instructions": "x"}]}')
        with pytest.raises(PlanParseError, match="unknown action id"):
            parse_plan(raw, ALL_ACTIONS)

    def test_disallowed_action_rejected(self):
        with pytest.raises(PlanParseError, match="disallowed action"):
            parse_plan(
                block('{"actions": [{"id": 2, "instructions": "x"}]}'), frozenset({1})
            )

    def test_empty_actions_rejected(self):
        with pytest.raises(PlanParseError, match="empty"):
            parse_plan(block('{"actions": []}'), ALL_ACTIONS)

    def test_missing_instructions_rejected(self):
        with pytest.raises(PlanParseError, match="lacks instructions"):
            parse_plan(block('{"actions": [{"id": 1}]}'), ALL_ACTIONS)

    def test_pure_function_same_result(self):
        raw = block('{"actions": [{"id": 1, "instructions": "answer"}]}')
        assert parse_plan(raw, ALL_ACTIONS) == parse_plan(raw, ALL_ACTIONS)


class TestPlanOperation:
    def test_scripted_plan_with_actions_3_then_4(self):
        task = Task(id="t", goal="summarize and classify")
        raw = block(
            '{"actions": [{"id": 3, "instructions": "title"},'
            ' {"id": 4, "instructions": "classify"}]}'
        )
        provider = mock_provider(raw)
        parsed = plan(task, reasoned_prompt(task), provider, transcript=Transcript())
        assert [a.name for a in parsed.actions] == [
            ActionName.TITLE_GENERATION,
            ActionName.CATEGORIZATION,
        ]
        assert parsed.raw == raw
        assert len(provider.call_log) == 1

    def test_unstructured_output_is_a_parse_error(self):
        task = Task(id="t", goal="do something")
        provider = mock_provider("no structure here")
        with pytest.raises(PlanParseError, match="no plan block found"):
            plan(task, reasoned_prompt(task), provider, transcript=Transcript())

    def test_disallowed_action_enforced_from_task(self):
        task = Task(id="t", goal="answer", allowed_actions=frozenset({1}))
        provider = mock_provider(block('{"actions": [{"id": 2, "instructions": "x"}]}'))
        with pytest.raises(PlanParseError, match="disallowed action"):
            plan(task, reasoned_prompt(task), provider, transcript=Transcript())

    def test_reasoned_prompt_must_carry_goal(self):
        task = Task(id="t", goal="the goal text")
        other = PromptArtifact(
            system_role="analyst", segments=(ContentItem.from_text("unrelated"),)
        )
        with pytest.raises(InvariantError, match="goal"):
            plan(task, other, mock_provider("x"), transcript=Transcript())

    def test_one_provider_call_and_transcript_event(self):
        task = Task(id="t", goal="answer")
        provider = mock_provider(block('{"actions": [{"id": 1, "instructions": "a"}]}'))
        transcript = Transcript()
        plan(task, reasoned_prompt(task), provider, transcript=transcript)
        assert transcript.signature() == (("planner", "plan"),)

    def test_allowed_ids_listed_in_request(self):
        assert menu_and_ids(frozenset({1, 3})) == [
            "\n".join([MENU_HEADER, MENU_LINES[1], MENU_LINES[3]]),
            "Allowed action ids: 1, 3",
        ]

    def test_one_permitted_action_gets_a_one_line_menu(self):
        assert menu_and_ids(frozenset({4})) == [
            "\n".join([MENU_HEADER, MENU_LINES[4]]),
            "Allowed action ids: 4",
        ]

    def test_unrestricted_menu_is_the_full_four_line_text(self):
        assert menu_and_ids(None) == [FULL_MENU, "Allowed action ids: 1, 2, 3, 4"]


def replan_prompt(task: Task, refined: RefinedInstructions) -> PromptArtifact:
    """The task prompt of a replan trial: it carries the corrective
    instructions."""
    return create_task_prompt(task, EnvironmentContext(), "analyst", refined=refined)


class TestReplanOperation:
    """A replan is plan() over a task prompt that carries the refiner's
    corrective instructions."""

    def test_corrective_context_included_and_shared_parsing(self):
        task = Task(id="t", goal="answer", allowed_actions=frozenset({1}))
        raw = block('{"actions": [{"id": 1, "instructions": "only QA"}]}')
        provider = mock_provider(raw)
        refined = RefinedInstructions(instructions="drop action 2", derived_from="d")
        parsed = plan(task, replan_prompt(task, refined), provider, transcript=Transcript())
        assert [a.action_id for a in parsed.actions] == [1]
        assert (
            "Corrective instructions from plan review:\ndrop action 2"
            in provider.call_log[0][0].flattened()
        )

    def test_replan_carries_the_same_trimmed_menu(self):
        allowed = frozenset({1, 3})
        task = Task(id="t", goal="answer", allowed_actions=allowed)
        provider = mock_provider(block('{"actions": [{"id": 3, "instructions": "title"}]}'))
        refined = RefinedInstructions(instructions="title only", derived_from="d")
        plan(
            task,
            replan_prompt(task, refined),
            provider,
            transcript=Transcript(),
            operation="replan",
        )
        assert planning_texts(provider)[1:3] == menu_and_ids(allowed)

    def test_empty_refined_instructions_rejected(self):
        with pytest.raises(InvariantError):
            RefinedInstructions(instructions="   ", derived_from="d")

    def test_same_script_gives_same_plan_as_plan(self):
        task = Task(id="t", goal="answer")
        raw = block('{"actions": [{"id": 1, "instructions": "answer"}]}')
        direct = plan(task, reasoned_prompt(task), mock_provider(raw), transcript=Transcript())
        refined = RefinedInstructions(instructions="be brief", derived_from="d")
        redone = plan(
            task, replan_prompt(task, refined), mock_provider(raw), transcript=Transcript()
        )
        assert direct.actions == redone.actions

    def test_replan_records_replan_operation(self):
        task = Task(id="t", goal="answer")
        raw = block('{"actions": [{"id": 1, "instructions": "answer"}]}')
        transcript = Transcript()
        refined = RefinedInstructions(instructions="tighten", derived_from="d")
        plan(
            task,
            replan_prompt(task, refined),
            mock_provider(raw),
            transcript=transcript,
            operation="replan",
        )
        assert transcript.signature() == (("planner", "replan"),)


def test_planner_is_the_only_plan_block_writer():
    """Every plan block the package writes comes from planner.plan_block."""
    writers = {
        module.name
        for module in Path(socialagent.__file__).parent.glob("*.py")
        if "```json" in module.read_text(encoding="utf-8")
    }
    assert writers == {"planner.py"}
