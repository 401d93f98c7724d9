"""The solving protocol's call sequence, defined once. A run's path is a
`Shape`: per planning trial, the iterations `k` of its optimizer loop and
whether the gate, critic and refiner ran; per action, the actor calls `a` of
one act (2 for two-level categorization) and its loop's `k`. `signature` is
the (unit, operation) sequence a transcript records, and `budget` the
provider calls, embeds included:

    1 + sum_trials[R + 1 + 4k + gate(2 + critic + refiner)]
      + sum_actions[R + 2a + 4k]

with R = 2 under reflection strategies and 0 otherwise. Nothing on the run
path imports this module; fixtures and tests hold the engine to it."""

from __future__ import annotations

from dataclasses import dataclass

Pair = tuple[str, str]
OPTIMIZER_OPS = ("forward", "compute_loss", "gradient", "step")


@dataclass(frozen=True)
class TrialShape:
    k: int
    gate: bool = False
    critic: bool = False
    refiner: bool = False


@dataclass(frozen=True)
class ActionShape:
    a: int
    k: int


@dataclass(frozen=True)
class Shape:
    reflection: bool
    trials: tuple[TrialShape, ...]
    actions: tuple[ActionShape, ...]


def reason_block(reflection: bool) -> tuple[Pair, ...]:
    return (("reasoner", "reason"),) * (2 if reflection else 1)


def optimizer_block(k: int) -> tuple[Pair, ...]:
    return tuple(("optimizer", op) for _ in range(k) for op in OPTIMIZER_OPS)


def trial_block(trial: TrialShape, index: int, reflection: bool) -> tuple[Pair, ...]:
    """Every trial after the first follows a refinement, so it replans."""
    return (
        *reason_block(reflection),
        ("planner", "replan" if index else "plan"),
        *optimizer_block(trial.k),
        *(("critic", "embed"),) * (2 * trial.gate),
        *(("critic", "criticize"),) * trial.critic,
        *(("refiner", "refine"),) * trial.refiner,
    )


def action_block(action: ActionShape, reflection: bool) -> tuple[Pair, ...]:
    acts = (("actor", "act"),) * action.a
    return (*reason_block(reflection), *acts, *optimizer_block(action.k), *acts)


def signature(shape: Shape) -> tuple[Pair, ...]:
    return (
        ("role_writer", "bootstrap_role"),
        *(p for i, t in enumerate(shape.trials) for p in trial_block(t, i, shape.reflection)),
        *(p for action in shape.actions for p in action_block(action, shape.reflection)),
    )


def budget(shape: Shape) -> int:
    """A local strategy records its reasoner event without a provider call."""
    return sum(1 for unit, _ in signature(shape) if shape.reflection or unit != "reasoner")
