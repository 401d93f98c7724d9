from __future__ import annotations

import pytest

from socialagent.core import EngineConfig, ReasoningStrategy, UnitRole
from socialagent.fixtures import mock_config
from socialagent.providers import MockProvider, ProviderConfig


def mock_provider(*responses: str, model_name: str = "mock", **kwargs) -> MockProvider:
    return MockProvider(mock_config(model_name, *responses, **kwargs))


def engine_config(
    *,
    planner: tuple[str, ...] = (),
    optimizer: tuple[str, ...] = (),
    actor: tuple[str, ...] = (),
    reasoner: tuple[str, ...] = (),
    critic: tuple[str, ...] = (),
    refiner: tuple[str, ...] = (),
    role_writer: tuple[str, ...] = ("You are an analyst.",),
    critic_config: ProviderConfig | None = None,
    strategy: ReasoningStrategy | None = None,
    **kwargs,
) -> EngineConfig:
    bindings = {
        UnitRole.ROLE_WRITER: mock_config("role-scribe", *role_writer),
        UnitRole.REASONER: mock_config("unit-reasoner", *reasoner),
        UnitRole.PLANNER: mock_config("unit-planner", *planner),
        UnitRole.OPTIMIZER: mock_config("unit-optimizer", *optimizer),
        UnitRole.CRITIC: critic_config or mock_config("unit-critic", *critic),
        UnitRole.REFINER: mock_config("unit-refiner", *refiner),
        UnitRole.ACTOR: mock_config("unit-actor", *actor),
    }
    return EngineConfig(
        role_bindings=bindings,
        strategy=strategy or ReasoningStrategy.zero_shot_cot(),
        **kwargs,
    )


@pytest.fixture
def qa_plan_block() -> str:
    from socialagent.fixtures import QA_PLAN_BLOCK

    return QA_PLAN_BLOCK
