from __future__ import annotations

import pytest

from socialagent.core import EngineConfig, ReasoningStrategy, Transcript, UnitRole
from socialagent.fixtures import mock_bindings, mock_config
from socialagent.providers import MockProvider


def mock_provider(*responses: str, model_name: str = "mock", **kwargs) -> MockProvider:
    return MockProvider(mock_config(model_name, *responses, **kwargs))


def engine_config(
    *,
    critic_embeddings: dict[str, tuple[float, ...]] | None = None,
    strategy: ReasoningStrategy | None = None,
    **kwargs,
) -> EngineConfig:
    """A config of the seven mock bindings: a keyword named after a unit
    role (``planner=``, ``role_writer=`` ...) gives that unit's replies,
    any other keyword sets an ``EngineConfig`` field."""
    kwargs.setdefault("role_writer", ("You are an analyst.",))
    scripts = {role: kwargs.pop(role.value, ()) for role in UnitRole}
    return EngineConfig(
        role_bindings=mock_bindings(scripts, critic=critic_embeddings),
        strategy=strategy or ReasoningStrategy.zero_shot_cot(),
        **kwargs,
    )


def operations(transcript: Transcript) -> list[str]:
    """The operation of each transcript event, in invocation order."""
    return [operation for _, operation in transcript.signature()]


@pytest.fixture
def qa_plan_block() -> str:
    from socialagent.fixtures import QA_PLAN_BLOCK

    return QA_PLAN_BLOCK
