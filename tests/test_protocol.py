"""`socialagent.protocol` is the one model of the solving protocol's call
sequence. The property test draws paths through the protocol, scripts every
unit's replies for the path in call order, runs `engine.solve`, and holds
the transcript and the calls made to the model; a drawn action or trial
fault holds the run to that fault's rule instead. The guard keeps the
benchmark's own copy of the model, `bench/protocol.py`, equal to it."""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from socialagent import fixtures
from socialagent.core import (
    ACTION_NAMES_BY_ID,
    DEFAULT_EARLY_STOP_MARKER,
    ContentItem,
    EngineConfig,
    EnvironmentContext,
    ReasoningStrategy,
    StrategyKind,
    Task,
    UnitRole,
)
from socialagent.engine import build_units, solve
from socialagent.errors import MockScriptMismatchError
from socialagent.planner import plan_block
from socialagent.protocol import (
    ActionShape,
    Shape,
    TrialShape,
    budget,
    reason_block,
    signature,
)
from socialagent.providers import MockScriptEntry

BENCH = Path(__file__).resolve().parents[1] / "bench"
STRATEGIES = ("none", "few_shot", "zero_shot_cot", "self_reflection", "cot_and_reflection")
# The demonstration pair a few-shot run prepends to every reasoned prompt.
FEW_SHOT_EXAMPLES = (("Post: the bridge reopened.", "ANSWER: the bridge reopened"),)
REFLECTION = ("self_reflection", "cot_and_reflection")
# A non-final trial's gate passes, fires with the non-actionable verdict A
# or B, or fires with actionable feedback that leads to a replan.
GATES = ("pass", "A", "B", "replan")
# Each action id's actor replies (first act, then the revised act); a
# two-level categorization asks twice per act.
REPLIES = {
    1: (("ANSWER: draft",), ("ANSWER: final",)),
    3: (("TITLE: draft",), ("TITLE: final",)),
    4: (("CATEGORY: sport", "CATEGORY: tennis"), ("CATEGORY: science", "CATEGORY: space")),
}
ANSWERS = {1: ("draft", "final"), 3: ("draft", "final"), 4: ("sport / tennis", "science / space")}
# The matcher of a faulted action's first actor entry or a faulted trial's
# planner entry: no request carries it.
NO_REQUEST_CARRIES = "a segment that no request carries"
TASK = Task(
    id="protocol-run",
    goal="Answer the post's question, title it and classify it.",
    inputs=(ContentItem.from_text("Post: the council passed the new parks budget today."),),
    allowed_actions=frozenset({1, 3, 4}),
)


@dataclass(frozen=True)
class Run:
    """One path through the protocol: the reasoning strategy, the optimizer's
    iteration budget, the trial budget, the gate outcome of every non-final
    trial that ran, the early-stop iteration of each optimizer loop (trials,
    then actions; None runs the whole budget), the plan's action ids, the
    index of the action whose first actor call faults and the index of the
    trial whose planner call faults (each None when none does; a run draws
    at most one of them)."""

    strategy: str
    tgd: int
    trials: int
    gates: tuple[str, ...]
    stops: tuple[int | None, ...]
    actions: tuple[int, ...]
    fault: int | None = None
    trial_fault: int | None = None

    @property
    def trials_run(self) -> int:
        return len(self.gates) + (not self.gates or self.gates[-1] == "replan")


@st.composite
def runs(draw) -> Run:
    tgd, trials = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gates: list[str] = []
    while len(gates) < trials - 1 and (not gates or gates[-1] == "replan"):
        gates.append(draw(st.sampled_from(GATES)))
    actions = tuple(draw(st.lists(st.sampled_from((1, 3, 4)), min_size=1, max_size=4)))
    run = Run(draw(st.sampled_from(STRATEGIES)), tgd, trials, tuple(gates), (), actions)
    # a loop whose gate fires may not stop at iteration 1: the optimized
    # text would then equal the plan
    fires = [gate != "pass" for gate in gates]
    fires += [False] * (run.trials_run - len(gates) + len(actions))
    stops = tuple(draw(st.sampled_from((None, *range(1 + fire, tgd + 1)))) for fire in fires)
    fault, trial_fault = draw(
        st.one_of(
            st.tuples(st.none(), st.none()),
            st.tuples(st.integers(0, len(actions) - 1), st.none()),
            st.tuples(st.none(), st.integers(0, run.trials_run - 1)),
        )
    )
    return replace(run, stops=stops, fault=fault, trial_fault=trial_fault)


def _plan(label: str, ids: tuple[int, ...]) -> str:
    actions = [(i, f"{label}, step {n}") for n, i in enumerate(ids, 1)]
    return plan_block(actions, label, f"Plan {label}.")


class _Scripts:
    """Every unit's replies for one run, in the order the unit is called."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.entries: dict[UnitRole, list[MockScriptEntry]] = {role: [] for role in UnitRole}
        self.overrides: dict[str, tuple[float, ...]] = {}
        self._stops = iter(run.stops)

    def add(self, role: UnitRole, response: str, matcher: str | None = None) -> None:
        self.entries[role].append(MockScriptEntry(response, matcher))

    def reason(self) -> None:
        if self.run.strategy in REFLECTION:
            self.add(UnitRole.REASONER, "a reasoning trace")
            self.add(UnitRole.REASONER, "a reflection on the trace")

    def optimize(self, value: str, rewrite) -> tuple[int, str]:
        """Script one loop from ``value``; its iteration n rewrites to
        ``rewrite(n)``. Returns the iterations run and the resolved text."""
        stop = next(self._stops)
        for n in range(1, self.run.tgd + 1):
            for note in ("prediction", "evaluation", "feedback"):
                self.add(UnitRole.OPTIMIZER, f"{note} {n}")
            step = DEFAULT_EARLY_STOP_MARKER if n == stop else rewrite(n)
            self.add(UnitRole.OPTIMIZER, step, f"Current version:\n{value}")
            if n == stop:
                return n, value
            value = step
        return self.run.tgd, value

    def config(self) -> EngineConfig:
        return EngineConfig(
            role_bindings=fixtures.mock_bindings(self.entries, critic=self.overrides),
            trials=self.run.trials,
            tgd_iterations=self.run.tgd,
            strategy=ReasoningStrategy(
                StrategyKind(self.run.strategy),
                FEW_SHOT_EXAMPLES if self.run.strategy == "few_shot" else (),
            ),
        )


def build(run: Run) -> tuple[EngineConfig, Shape, str, list[tuple[int, str]]]:
    """The scripted config of ``run``, its shape, the plan it executes and
    the (action id, answer) results it returns."""
    scripts = _Scripts(run)
    scripts.add(UnitRole.ROLE_WRITER, "You are a careful analyst.")
    trials, corrective = [], None
    for index in range(run.trials_run):
        scripts.reason()
        plan_a = _plan(f"trial {index}", run.actions)
        matcher = corrective and f"Corrective instructions from plan review:\n{corrective}"
        if index == run.trial_fault:
            matcher = NO_REQUEST_CARRIES
        scripts.add(UnitRole.PLANNER, plan_a, matcher)
        k, plan_b = scripts.optimize(
            plan_a, lambda n: _plan(f"trial {index} rewrite {n}", run.actions)
        )
        gate = run.gates[index] if index < len(run.gates) else None
        fired = gate not in (None, "pass")
        if gate is not None:
            scripts.overrides[plan_a] = (2.0, 0.0) if fired else (1.0, 0.0)
            scripts.overrides[plan_b] = (0.0, 2.0) if fired else (1.0, 0.0)
        if fired:
            feedback = f"cite the passage in trial {index}" if gate == "replan" else ""
            verdict = f"VERDICT: {'B' if gate == 'B' else 'A'}\nFEEDBACK: {feedback}"
            scripts.add(UnitRole.CRITIC, verdict, f"Plan B (optimizer):\n{plan_b}")
        if gate == "replan":
            corrective = f"corrective instructions after trial {index}"
            scripts.add(UnitRole.REFINER, corrective, f"Review feedback:\n{feedback}")
        trials.append(TrialShape(k, gate=gate is not None, critic=fired, refiner=gate == "replan"))
        executed = plan_a if gate == "A" else plan_b
    actions, results = [], []
    for n, action_id in enumerate(run.actions, 1):
        scripts.reason()
        first, final = REPLIES[action_id]
        draft, answer = ANSWERS[action_id]
        for i, reply in enumerate(first):
            faulted = i == 0 and run.fault == n - 1
            scripts.add(UnitRole.ACTOR, reply, NO_REQUEST_CARRIES if faulted else None)
        k, revision = scripts.optimize(draft, lambda i: f"revision {i} of action {n}")
        revised = f"Revision feedback from a prior attempt:\n{revision}"
        for reply in final:
            scripts.add(UnitRole.ACTOR, reply, revised)
        actions.append(ActionShape(a=len(first), k=k))
        results.append((action_id, answer))
    shape = Shape(run.strategy in REFLECTION, tuple(trials), tuple(actions))
    return scripts.config(), shape, executed, results


@pytest.fixture(scope="module")
def bench_protocol():
    """``bench/protocol.py``, imported read-only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("protocol")


def assert_bench_model_agrees(bench, shape: Shape) -> None:
    copy = bench.Shape(
        shape.reflection,
        tuple(
            bench.TrialShape(t.k, t.gate, t.critic, t.refiner, replan=index > 0)
            for index, t in enumerate(shape.trials)
        ),
        tuple(bench.ActionShape(a.a, a.k) for a in shape.actions),
    )
    assert bench.signature(copy) == signature(shape)
    assert bench.budget(copy) == budget(shape)


@settings(deadline=None, max_examples=500)
@given(runs())
# three trials under reflection, two of them replans, then four actions
@example(
    Run("cot_and_reflection", 2, 3, ("replan",) * 2, (2, None, 1, None, 2, 1, None), (1, 4, 3, 4))
)
@example(Run("zero_shot_cot", 1, 1, (), (None, 1), (1,)))
# the middle action faults while the last one reasons ahead
@example(Run("cot_and_reflection", 1, 1, (), (None,) * 4, (1, 4, 3), fault=1))
# the first replan's planner call faults after a refined first trial
@example(Run("self_reflection", 1, 3, ("replan", "B"), (None,) * 4, (1, 3), trial_fault=1))
def test_solve_follows_the_protocol_model(bench_protocol, run):
    config, shape, executed, results = build(run)
    units = build_units(config)
    response = solve(TASK, EnvironmentContext(), config, units=units, taxonomy=fixtures.taxonomy())
    assert_bench_model_agrees(bench_protocol, shape)
    providers = units.values()
    served = sum(len(p.call_log) + len(p.embed_log) for p in providers)

    def mismatch(role):
        # the faulted call is the one after the last that role's provider served
        n = len(units[role].call_log) + 1
        return f"scripted response {n} expected request to contain {NO_REQUEST_CARRIES!r}"

    t = run.trial_fault
    if t is not None:
        # trial t's fault keeps the trials before it and its own reasoning
        # events, and returns no plan, no results and no trial views
        assert isinstance(response.error, MockScriptMismatchError)
        assert response.failure == mismatch(UnitRole.PLANNER)
        assert response.plan_used is None
        assert response.results == ()
        assert response.trial_views == ()
        assert response.trials_executed == 0
        head = replace(shape, trials=shape.trials[:t], actions=())
        assert response.transcript.signature() == signature(head) + reason_block(shape.reflection)
        assert served == budget(head) + 2 * shape.reflection
        return
    assert response.plan_used.raw == executed
    assert response.trials_executed == len(shape.trials)
    # one view per drawn trial, holding exactly the steps its shape ran
    views = response.trial_views
    steps = [(v.gate is not None, v.critique is not None, v.refined is not None) for v in views]
    assert steps == [(trial.gate, trial.critic, trial.refiner) for trial in shape.trials]
    assert response.gate_decisions == tuple(v.gate for v in views if v.gate is not None)
    assert response.critiques == tuple(v.critique for v in views if v.critique is not None)
    recorded = [(r.action_id, r.answer) for r in response.results]
    j = run.fault
    if j is not None:
        # action j's fault keeps the results before it and its own reasoning
        # events; no event after the fault, ahead reasoning included, is kept
        assert isinstance(response.error, MockScriptMismatchError)
        name = ACTION_NAMES_BY_ID[run.actions[j]].value
        assert response.failure == f"action {j + 1} ({name}): {mismatch(UnitRole.ACTOR)}"
        assert recorded == results[:j]
        head = replace(shape, actions=shape.actions[:j])
        assert response.transcript.signature() == signature(head) + reason_block(shape.reflection)
        return
    assert response.error is None
    assert response.transcript.signature() == signature(shape)
    assert served == budget(shape)
    assert [p.remaining for p in providers] == [0] * len(UnitRole)
    assert recorded == results


@pytest.mark.parametrize("name", sorted(fixtures.SCENARIO_SHAPES))
def test_bench_model_agrees_on_the_scenarios(bench_protocol, name):
    assert_bench_model_agrees(bench_protocol, fixtures.SCENARIO_SHAPES[name])


@pytest.mark.parametrize(
    "golden, shape",
    [
        (
            "golden_solve_report.json",
            Shape(False, (TrialShape(k=1, gate=True),), (ActionShape(1, 1),)),
        ),
        (
            "golden_multi_action_solve_report.json",
            Shape(
                True,
                (TrialShape(k=1),),
                (ActionShape(1, 1), ActionShape(1, 1), ActionShape(2, 1)),
            ),
        ),
    ],
)
def test_bundled_solve_goldens_follow_the_protocol_model(golden, shape):
    report = json.loads(fixtures.fixture_path(golden).read_text(encoding="utf-8"))
    recorded = tuple((e["unit"], e["operation"]) for e in report["transcript"])
    assert recorded == signature(shape)
