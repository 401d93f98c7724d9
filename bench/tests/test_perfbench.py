"""Tests of the benchmark itself: seeded generation, the protocol's call
budget against the committed reference sequences, and the output checks.

    python3 -m pytest bench/tests -q
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import generate
import workloads
from backend import Latency, Meter, SimBackend
from protocol import ActionShape, Shape, TrialShape, budget, provider_calls, signature
from socialagent import canonical, engine, evaluation
from socialagent.core import EnvironmentContext
from socialagent.engine import UnitSet
from socialagent.providers import MockProvider

FIXTURES = Path(__file__).resolve().parents[2] / "src" / "socialagent" / "fixtures"

SCENARIOS = {
    "scenario_a": Shape(False, (TrialShape(k=1, gate=True),), (ActionShape(a=1, k=1),)),
    "scenario_b": Shape(
        False,
        (TrialShape(k=1, gate=True, critic=True, refiner=True), TrialShape(k=1, replan=True)),
        (ActionShape(a=1, k=1),),
    ),
    "scenario_c": Shape(False, (TrialShape(k=1),), (ActionShape(a=1, k=1),)),
}

GENERATORS = {
    "solve-actions": lambda seed: generate.generate_solve_actions(seed, 6),
    "solve-trials": lambda seed: generate.generate_solve_trials(seed, 20),
    "eval-batch": lambda seed: generate.generate_eval_batch(seed, 40, 20),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_budget_and_signature_match_committed_sequence(name):
    data = json.loads((FIXTURES / f"{name}_sequence.json").read_text(encoding="utf-8"))
    committed = tuple(tuple(pair) for pair in data["sequence"])
    shape = SCENARIOS[name]
    assert signature(shape) == committed
    assert budget(shape) == provider_calls(committed, reflection=False)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_budget_matches_calls_made_by_scenario_solve(name):
    setup = evaluation.load_setup(FIXTURES / f"{name}_config.json")
    task = canonical.deserialize((FIXTURES / "scenario_task.json").read_text(encoding="utf-8"))
    meter = Meter()
    units = UnitSet(
        {
            role: SimBackend(MockProvider(cfg), Latency(), meter)
            for role, cfg in setup.engine.role_bindings.items()
        }
    )
    response = engine.solve(task, EnvironmentContext(), setup.engine, units=units)
    assert meter.total_calls == budget(SCENARIOS[name])
    assert response.transcript.signature() == signature(SCENARIOS[name])


def test_budget_counts_reflection_gate_critic_and_refiner():
    shape = Shape(
        True,
        (TrialShape(k=2, gate=True, critic=True, refiner=True), TrialShape(k=1, replan=True)),
        (ActionShape(a=2, k=2), ActionShape(a=1, k=1)),
    )
    trials = (2 + 1 + 8 + 2 + 1 + 1) + (2 + 1 + 4)
    actions = (2 + 4 + 8) + (2 + 2 + 4)
    assert budget(shape) == 1 + trials + actions
    assert provider_calls(signature(shape), reflection=True) == budget(shape)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    first = GENERATORS[workload](3)
    again = GENERATORS[workload](3)
    other = GENERATORS[workload](generate.HELD_OUT_SEED)
    assert first.files == again.files
    assert set(first.files) == set(other.files)
    assert all(first.files[name] != other.files[name] for name in first.files if name != "taxonomy.json")


def _small(monkeypatch):
    monkeypatch.setattr(workloads, "SOLVE_ACTIONS_POOL", 5)
    monkeypatch.setattr(workloads, "SOLVE_TRIALS_POOL", 20)
    monkeypatch.setattr(workloads, "SOLVE_LATENCY", Latency())
    monkeypatch.setattr(workloads, "EVAL_LATENCY", Latency())
    monkeypatch.setattr(workloads, "EVAL_RECORDS", 40)
    monkeypatch.setattr(workloads, "EVAL_SLICE", 20)


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_generated_workload_passes_every_check(workload, tmp_path, monkeypatch):
    _small(monkeypatch)
    runner = workloads.RUNNERS[workload](5, tmp_path)
    runner.load()
    metrics, attempted = runner.timed(0)
    assert attempted >= 1
    assert metrics["calls_per_task"] > 0


def test_passes_are_whole_and_pauses_spread_outside_the_measured_time(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    steps, pauses = [], []

    def step(i):
        steps.append(i)
        clock[0] += 1

    def pause():
        pauses.append(len(steps))
        clock[0] += 100

    out = workloads._passes(3, 10, step, pause, 4)
    assert len(out) == 12 and steps[:4] == [0, 1, 2, 0]
    assert pauses == [0, 3, 5, 8]


def test_wrong_expected_result_fails_the_run(tmp_path, monkeypatch):
    _small(monkeypatch)
    runner = workloads.RUNNERS["solve-actions"](5, tmp_path)
    runner.load()
    first = runner.inputs.tasks[0].id
    expect = runner.gen.tasks[first]
    expect.results = expect.results[:-1] + ((9, "elsewhere", None),)
    with pytest.raises(workloads.CheckFailed, match="results"):
        runner.timed(0)


def test_wrong_failed_flag_fails_the_eval_run(tmp_path, monkeypatch):
    _small(monkeypatch)
    runner = workloads.RUNNERS["eval-batch"](5, tmp_path)
    runner.load()
    failing = next(rid for rid, r in runner.gen.records.items() if r.failed)
    runner.gen.records[failing].failed = False
    with pytest.raises(workloads.CheckFailed):
        runner.timed(0)
