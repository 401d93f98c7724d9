"""The solving protocol's analytic call budget and transcript signature.

A task's path through the protocol is described by a `Shape`: how many
optimizer iterations each loop ran, which gates fired, whether the critic
and refiner ran, and how many actor calls each action makes. From a shape
the budget formula

    1 + sum_trials[R + 1 + 4k + gate(2 + critic + refiner)]
      + sum_actions[R + 2a + 4k]

gives the number of provider calls (embeds included), and `signature`
gives the (unit, operation) sequence the transcript must record. R is 2
for reflection strategies and 0 otherwise; local strategies still record
one reasoner event, which is not a provider call.
"""

from __future__ import annotations

from dataclasses import dataclass

OPTIMIZER_OPS = ("forward", "compute_loss", "gradient", "step")


@dataclass(frozen=True)
class TrialShape:
    k: int
    gate: bool = False
    critic: bool = False
    refiner: bool = False
    replan: bool = False


@dataclass(frozen=True)
class ActionShape:
    a: int
    k: int


@dataclass(frozen=True)
class Shape:
    reflection: bool
    trials: tuple[TrialShape, ...]
    actions: tuple[ActionShape, ...]


def budget(shape: Shape) -> int:
    """Provider calls of a run that completes every planned action."""
    r = 2 if shape.reflection else 0
    total = 1
    for t in shape.trials:
        total += r + 1 + 4 * t.k + (2 + t.critic + t.refiner if t.gate else 0)
    for act in shape.actions:
        total += r + 2 * act.a + 4 * act.k
    return total


def signature(shape: Shape) -> tuple[tuple[str, str], ...]:
    reason = [("reasoner", "reason")] * (2 if shape.reflection else 1)
    seq = [("role_writer", "bootstrap_role")]
    for t in shape.trials:
        seq += reason
        seq.append(("planner", "replan" if t.replan else "plan"))
        seq += [("optimizer", op) for op in OPTIMIZER_OPS] * t.k
        if t.gate:
            seq += [("critic", "embed")] * 2
        if t.critic:
            seq.append(("critic", "criticize"))
        if t.refiner:
            seq.append(("refiner", "refine"))
    for act in shape.actions:
        seq += reason
        seq += [("actor", "act")] * act.a
        seq += [("optimizer", op) for op in OPTIMIZER_OPS] * act.k
        seq += [("actor", "act")] * act.a
    return tuple(seq)


def provider_calls(sequence: tuple[tuple[str, str], ...], reflection: bool) -> int:
    """Events of a signature that are provider calls."""
    local = 0 if reflection else sum(1 for unit, _ in sequence if unit == "reasoner")
    return len(sequence) - local
