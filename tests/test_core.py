from __future__ import annotations

import dataclasses
import hashlib

import pytest

from socialagent.core import (
    ACTION_NAMES_BY_ID,
    ActionName,
    ActionSpec,
    ContentItem,
    ContentKind,
    EngineConfig,
    EnvironmentContext,
    Plan,
    PromptArtifact,
    ReasoningStrategy,
    SamplingConfig,
    StrategyKind,
    Task,
    Transcript,
    UnitRole,
    digest,
)
from socialagent.errors import InvariantError


def make_task(**overrides) -> Task:
    fields = dict(id="t", goal="answer question", allowed_actions=frozenset({1}))
    fields.update(overrides)
    return Task(**fields)


class TestValidateTask:
    def test_empty_goal_reported(self):
        with pytest.raises(InvariantError, match="^empty goal$"):
            make_task(goal=" ")

    def test_unknown_action_id_reported(self):
        with pytest.raises(InvariantError, match=r"^unknown action id\(s\): \[5\]$"):
            make_task(allowed_actions=frozenset({5}))

    def test_minimal_valid_task_ok(self):
        assert make_task().permitted_actions() == frozenset({1})

    def test_constructor_enforces_invariants(self):
        with pytest.raises(InvariantError):
            Task(id="t", goal="")
        with pytest.raises(InvariantError):
            Task(id="t", goal="g", allowed_actions=frozenset({9}))
        with pytest.raises(InvariantError, match="^empty goal; allowed_actions is empty$"):
            Task(id="t", goal="", allowed_actions=frozenset())


class TestContentItem:
    def test_text_item(self):
        item = ContentItem.from_text("hello")
        assert item.kind is ContentKind.TEXT and item.text == "hello"

    def test_image_item(self):
        item = ContentItem.from_image("post.png", "image/png")
        assert item.kind is ContentKind.IMAGE_REF and item.image.location == "post.png"

    def test_mismatched_payload_rejected(self):
        with pytest.raises(InvariantError):
            ContentItem(kind=ContentKind.TEXT, text=None)
        with pytest.raises(InvariantError):
            ContentItem(kind=ContentKind.IMAGE_REF, text="x", image=None)
        image = ContentItem.from_image("post.png", "image/png").image
        with pytest.raises(InvariantError, match="^image item must carry an image and no text$"):
            ContentItem(kind=ContentKind.IMAGE_REF, text="x", image=image)

    def test_image_without_media_type_rejected(self):
        with pytest.raises(InvariantError, match="^ImageRef.media_type must be non-empty$"):
            ContentItem.from_image("post.png", "")


class TestActionSpec:
    def test_id_name_bijection_holds_for_all_four(self):
        assert sorted(ACTION_NAMES_BY_ID) == [1, 2, 3, 4]
        assert set(ACTION_NAMES_BY_ID.values()) == set(ActionName)
        for action_id, name in ACTION_NAMES_BY_ID.items():
            spec = ActionSpec(action_id, "do it")
            assert spec.name is name

    def test_mismatched_pair_rejected(self):
        with pytest.raises(InvariantError, match="^unknown action id 9$"):
            ActionSpec(9, "x")

    def test_empty_instructions_rejected(self):
        with pytest.raises(InvariantError):
            ActionSpec(1, "   ")


class TestPlanAndPrompt:
    def test_empty_plan_rejected(self):
        with pytest.raises(InvariantError):
            Plan(actions=())

    def test_prompt_requires_segments(self):
        with pytest.raises(InvariantError):
            PromptArtifact(system_role="r", segments=())

    def test_few_shot_requires_examples(self):
        with pytest.raises(InvariantError):
            ReasoningStrategy(StrategyKind.FEW_SHOT, ())
        strategy = ReasoningStrategy(StrategyKind.FEW_SHOT, (("in", "out"),))
        assert strategy.examples == (("in", "out"),)
        with pytest.raises(InvariantError, match="^zero_shot_cot strategy carries no examples$"):
            ReasoningStrategy(StrategyKind.ZERO_SHOT_COT, (("in", "out"),))


class TestSamplingConfig:
    def test_profiles(self):
        assert SamplingConfig().temperature == 0.0
        assert SamplingConfig.creative().temperature == 0.7
        assert SamplingConfig().top_p == 0.99

    def test_bounds(self):
        with pytest.raises(InvariantError):
            SamplingConfig(temperature=-1)
        with pytest.raises(InvariantError):
            SamplingConfig(top_p=0.0)
        assert SamplingConfig(top_p=1.0).top_p == 1.0
        with pytest.raises(InvariantError, match=r"^top_p must be in \(0, 1\]$"):
            SamplingConfig(top_p=1.5)
        for temperature in (float("nan"), float("inf")):
            with pytest.raises(InvariantError):
                SamplingConfig(temperature=temperature)


def test_environment_context_has_no_field():
    # solve still takes one, but no run reads it, so a description is refused
    assert dataclasses.fields(EnvironmentContext) == ()
    with pytest.raises(TypeError):
        EnvironmentContext(description="d")


class TestDigest:
    # hashlib.sha256 is the reference the built-in SHA-256 must match

    def test_empty_text(self):
        assert digest("") == "e3b0c44298fc"

    def test_non_ascii_text_matches_hashlib(self):
        text = "héllo — 社会 🙂"
        assert digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.trials == 2
        assert config.theta == 0.1
        assert config.strategy.kind.value == "cot_and_reflection"

    def test_bounds(self):
        assert EngineConfig(theta=1.0).theta == 1.0  # the closed bound [0, 1]
        with pytest.raises(InvariantError):
            EngineConfig(theta=1.5)
        with pytest.raises(InvariantError):
            EngineConfig(trials=0)
        with pytest.raises(InvariantError):
            EngineConfig(tgd_iterations=0)


class TestTranscript:
    def test_sequence_numbers_are_monotone(self):
        transcript = Transcript()
        for i in range(5):
            transcript.record(UnitRole.PLANNER, f"op{i}", "req", "res")
        seqs = [e["seq"] for e in transcript.report()]
        assert seqs == list(range(5))

    def test_signature_reflects_order(self):
        transcript = Transcript()
        transcript.record(UnitRole.REASONER, "reason", "a", "b")
        transcript.record(UnitRole.ACTOR, "act", "c", "d")
        assert transcript.signature() == (("reasoner", "reason"), ("actor", "act"))

    def test_absorb_appends_in_order_and_renumbers_seq(self):
        transcript = Transcript()
        transcript.record(UnitRole.ACTOR, "act", "a", "b")
        other = Transcript()
        other.record(UnitRole.REASONER, "reason", "c", "d")
        other.record(UnitRole.REASONER, "reason", "e", "f")
        transcript.absorb(other)
        assert transcript.signature() == (
            ("actor", "act"),
            ("reasoner", "reason"),
            ("reasoner", "reason"),
        )
        assert transcript.events[1:] == other.events
        assert [e["seq"] for e in transcript.report()] == [0, 1, 2]
        assert [e["seq"] for e in other.report()] == [0, 1]

    def test_count_filters(self):
        transcript = Transcript()
        transcript.record(UnitRole.OPTIMIZER, "forward", "a", "b")
        transcript.record(UnitRole.OPTIMIZER, "step", "a", "b")
        signature = transcript.signature()
        assert [unit for unit, _ in signature].count("optimizer") == 2
        assert [operation for _, operation in signature].count("step") == 1
