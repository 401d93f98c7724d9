"""Workload runners: write the generated inputs, load them, drive them
through the library's public API, check every output, and reduce the
timings and counts to metrics.

A run of `timed` measures with nothing wrapped. A run of `traced` makes one
untraced pass and one traced pass over the same inputs; per-layer figures
come from the traced pass, and the ratio of the two passes' times is the
tracing overhead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from pathlib import Path

from backend import Latency, Meter, SimBackend
from generate import (
    EVAL_KINDS,
    generate_eval_batch,
    generate_solve_actions,
    generate_solve_trials,
)
from inputs import load
from protocol import budget, provider_calls, signature
from spans import Patches, Tracer, layer_metrics, percentile
from socialagent import canonical, engine, evaluation
from socialagent.actor import CategoryPair
from socialagent.core import EnvironmentContext
from socialagent.engine import UnitSet
from socialagent.errors import TaskFailure
from socialagent.evaluation import TaskKind
from socialagent.providers import MockProvider, MockScript

# Pool sizes are set so that a run of BENCHMARK.json's run_seconds makes a
# few whole passes, with at least ten samples beyond each runner's tail
# percentile.
SOLVE_ACTIONS_POOL = 30
SOLVE_TRIALS_POOL = 60
EVAL_RECORDS = 240
EVAL_SLICE = 20
EVAL_WORKERS = 2
# Chosen so that the injected wait is at least 20x the orchestration CPU of
# a task (per-layer providers.wait_ms against engine.cpu_ms_per_task).
SOLVE_LATENCY = Latency(
    base_s=3.0e-3, per_prompt_token_s=6.0e-6, per_completion_token_s=6.0e-5, embed_s=1.5e-3
)
# eval-batch keeps a third of that, so that host-speed swings stay small
# against the wait; orchestration CPU is about a tenth of a record's time.
EVAL_LATENCY = Latency(
    base_s=1.0e-3, per_prompt_token_s=2.0e-6, per_completion_token_s=2.0e-5, embed_s=5.0e-4
)
ENV = EnvironmentContext()


class CheckFailed(Exception):
    """An output, call budget or transcript signature differs from the
    generator's prediction."""


def _structured(value):
    return (value.level1, value.level2) if isinstance(value, CategoryPair) else value


def _with_scripts(config, overrides):
    bindings = dict(config.role_bindings)
    for role, entries in overrides.items():
        bindings[role] = replace(bindings[role], script=MockScript(tuple(entries)))
    return replace(config, role_bindings=bindings)


def _end_to_end(
    walls: list[float], records_per_sample: int, meters: list[Meter], tail_p: float
) -> dict:
    ms = [w * 1e3 for w in walls]
    n = len(meters)
    print(f"samples: {len(ms)}; tail percentile: p{tail_p}", flush=True)
    return {
        "task_ms.p50": percentile(ms, 50),
        "task_ms.tail": percentile(ms, tail_p),
        "records_per_s": records_per_sample * len(walls) / sum(walls),
        "calls_per_task": sum(m.total_calls for m in meters) / n,
        "prompt_tokens_per_task": sum(sum(m.prompt_tokens.values()) for m in meters) / n,
        "completion_tokens_per_task": sum(sum(m.completion_tokens.values()) for m in meters) / n,
    }


def _passes(n: int, seconds: float, step, pause=None, pauses: int = 0) -> list:
    """step(0..n-1) in whole passes until `seconds` have been spent in
    steps, at least once, so that every run measures the same mix of inputs.
    pause() runs `pauses` times between steps, spread evenly over that time
    and not counted in it."""
    out = []
    spent = 0.0
    paused = 0
    while len(out) % n or len(out) < n or spent < seconds:
        if paused < pauses and spent >= paused * seconds / pauses:
            pause()
            paused += 1
        started = time.perf_counter()
        out.append(step(len(out) % n))
        spent += time.perf_counter() - started
    for _ in range(paused, pauses):
        pause()
    return out


def _layer(tracer: Tracer, meters: list[Meter], workers: int, plain: float, traced: float,
           load_setup_ms: float, cpu_ms: float) -> dict:
    """Per-layer figures of the traced pass, plus the untraced pass's CPU
    per task and the traced pass's cost over the untraced one."""
    figures = layer_metrics(tracer, meters, workers)
    figures["evaluation.load_setup.ms"] = load_setup_ms
    figures["engine.cpu_ms_per_task"] = cpu_ms
    figures["trace.overhead_pct"] = (traced / plain - 1) * 100
    return figures


class Runner:
    name = ""
    # The percentile task_ms.tail reports, fixed per workload so that it is
    # the same statistic however many samples a run collects.
    tail_p = 90

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.gen = self.generate(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.gen.files.items():
            (workdir / name).write_text(text, encoding="utf-8")

    def load(self) -> None:
        timer = Tracer()
        timer.wrap(evaluation, "load_setup", "evaluation.load_setup")
        try:
            self.inputs = load(self.name, self.workdir)
        finally:
            timer.restore()
        self.load_setup_ms = sum(s.duration for s in timer.spans) * 1e3


class SolveRunner(Runner):
    """One closed-loop client: solve a task, write its report, check it,
    then the next task of the pool."""

    def load(self) -> None:
        super().load()
        setup = self.inputs.setups["solve"]
        self.configs = {
            t.id: _with_scripts(setup.engine, setup.record_scripts[t.id]) for t in self.inputs.tasks
        }
        self.seen: dict[str, tuple] = {}

    def solve(self, task, tracer: Tracer | None = None) -> tuple[float, Meter]:
        meter = Meter()
        config = self.configs[task.id]
        root = tracer.open("bench.task", task.id) if tracer else None
        cpu = time.process_time()
        started = time.perf_counter()
        units = UnitSet(
            {
                role: SimBackend(MockProvider(cfg), SOLVE_LATENCY, meter, tracer)
                for role, cfg in config.role_bindings.items()
            }
        )
        response = engine.solve(task, ENV, config, units=units, taxonomy=self.inputs.taxonomy)
        span = tracer.open("canonical.report") if tracer else None
        report = engine.run_report(task, response)
        if tracer:
            tracer.close(span)
        wall = time.perf_counter() - started
        meter.cpu_s = time.process_time() - cpu
        if tracer:
            tracer.close(root)
        self.check(task, response, meter, report)
        return wall, meter

    def check(self, task, response, meter: Meter, report: str) -> None:
        expect = self.gen.tasks[task.id]
        got = response.transcript.signature()
        want = signature(expect.shape)
        problems = []
        if response.error is not None:
            problems.append(f"error {response.error}")
        if got != want:
            problems.append(f"signature {got} != {want}")
        if meter.total_calls != budget(expect.shape):
            problems.append(f"{meter.total_calls} provider calls, budget {budget(expect.shape)}")
        if provider_calls(got, expect.shape.reflection) != meter.total_calls:
            problems.append("transcript and backend disagree on the call count")
        results = tuple((r.action_id, r.answer, _structured(r.structured)) for r in response.results)
        if results != expect.results:
            problems.append(f"results {results} != {expect.results}")
        if response.trials_executed != expect.trials:
            problems.append(f"{response.trials_executed} trials, expected {expect.trials}")
        if tuple(g.activate for g in response.gate_decisions) != expect.gates:
            problems.append("gate decisions differ")
        critiques = tuple((c.selected.value, c.actionable) for c in response.critiques)
        if critiques != expect.critiques:
            problems.append(f"critiques {critiques} != {expect.critiques}")
        fingerprint = (meter.counts(), report)
        if self.seen.setdefault(task.id, fingerprint) != fingerprint:
            problems.append("counts or report differ from the task's first run")
        if problems:
            raise CheckFailed(f"{task.id}: " + "; ".join(problems))

    def timed(self, seconds: float, pause=None, pauses: int = 0):
        tasks = self.inputs.tasks
        self.solve(tasks[0])
        runs = _passes(len(tasks), seconds, lambda i: self.solve(tasks[i]), pause, pauses)
        meters = [meter for _, meter in runs[: len(tasks)]]
        return _end_to_end([wall for wall, _ in runs], 1, meters, self.tail_p), len(runs)

    def traced(self, seconds: float):
        tasks = self.inputs.tasks
        plain = [self.solve(t) for t in tasks]
        tracer = Tracer()
        tracer.instrument(with_eval=False)
        try:
            passes = [self.solve(t, tracer) for t in tasks]
        finally:
            tracer.restore()
        tracer.dump(self.workdir / "trace.json")
        metrics = _layer(
            tracer,
            [m for _, m in passes],
            1,
            sum(w for w, _ in plain),
            sum(w for w, _ in passes),
            self.load_setup_ms,
            sum(m.cpu_s for _, m in plain) / len(tasks) * 1e3,
        )
        return metrics, len(tasks)


class EvalRunner(Runner):
    """Evaluations of one slice of one dataset each (qa, title and
    categorize in turn), with a two-worker pool, serialized as the CLI's
    eval command does. `run_eval` builds its own providers, so each is
    built as a `SimBackend`; the first pass checks every record's
    transcript and call count."""

    name = "eval-batch"

    def generate(self, seed: int):
        return generate_eval_batch(seed, EVAL_RECORDS, EVAL_SLICE)

    def load(self) -> None:
        super().load()
        self.by_id = {r.id: r for ds in self.inputs.datasets.values() for r in ds}
        slices = len(self.gen.slices[EVAL_KINDS[0]])
        self.jobs = [(kind, index) for index in range(slices) for kind in EVAL_KINDS]
        self.expected: dict[tuple[str, int], dict] = {}
        self.seen: dict[tuple[str, int], str] = {}

    def evaluate(self, job: tuple[str, int], tracer: Tracer | None = None) -> tuple[float, float]:
        """(wall, CPU) seconds of one eval over one slice."""
        kind, index = job
        setup = self.inputs.setups[kind]
        records = [self.by_id[rid] for rid in self.gen.slices[kind][index]]
        cpu = time.process_time()
        started = time.perf_counter()
        span = tracer.open("evaluation.run_eval") if tracer else None
        report = evaluation.run_eval(
            records,
            TaskKind(kind),
            setup.engine,
            taxonomy=self.inputs.taxonomy if setup.taxonomy_path else None,
            record_scripts=setup.record_scripts,
            workers=EVAL_WORKERS,
        )
        if tracer:
            tracer.close(span)
            span = tracer.open("canonical.report")
        text = canonical.serialize(report)
        if tracer:
            tracer.close(span)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        self.check(kind, index, report, text)
        return wall, cpu

    def check(self, kind: str, index: int, report, text: str) -> None:
        ids = self.gen.slices[kind][index]
        key = (kind, index)
        if key not in self.expected:
            self.expected[key] = _expected_aggregates(kind, [self.gen.records[i] for i in ids])
        problems = []
        if report.kind != kind or [s.id for s in report.per_record] != sorted(ids):
            problems.append(f"report of kind {report.kind} over other records")
        for score in report.per_record:
            expect = self.gen.records[score.id]
            if score.failed != expect.failed or score.scores != expect.scores:
                problems.append(f"{score.id}: failed={score.failed} scores={score.scores}")
        if report.aggregates != self.expected[key]:
            problems.append(f"aggregates {report.aggregates} != {self.expected[key]}")
        if self.seen.setdefault(key, text) != text:
            problems.append("report differs from the slice's first run")
        if problems:
            raise CheckFailed(f"{kind} slice {index}: " + "; ".join(problems))

    def sweep(self, seconds: float, tracer: Tracer | None = None, pause=None, pauses: int = 0):
        """Whole passes over every job until `seconds` have passed; returns
        each eval's (wall, CPU) and the meters of the last pass's records."""
        patches = tracer.patches if tracer else Patches()
        local = threading.local()
        meters: dict[str, Meter] = {}
        transcripts = {}
        solve = engine.solve

        def counted_solve(task, *args, **kwargs):
            local.meter = meters[task.id] = Meter()
            try:
                response = solve(task, *args, **kwargs)
            except TaskFailure as exc:
                transcripts[task.id] = exc.transcript
                raise
            transcripts[task.id] = response.transcript
            return response

        patches.set(engine, "solve", counted_solve)
        patches.set(
            engine,
            "build_provider",
            lambda config: SimBackend(MockProvider(config), EVAL_LATENCY, local.meter, tracer),
        )
        try:
            samples = _passes(
                len(self.jobs), seconds, lambda i: self.evaluate(self.jobs[i], tracer), pause, pauses
            )
        finally:
            patches.restore()
        for rid, expect in self.gen.records.items():
            got = transcripts[rid].signature()
            meter = meters[rid]
            want_calls = provider_calls(expect.sequence, False)
            if got != expect.sequence:
                raise CheckFailed(f"{rid}: signature {got} != {expect.sequence}")
            if meter.total_calls != want_calls or meter.errors != expect.errors:
                raise CheckFailed(f"{rid}: {meter.total_calls} calls, {meter.errors} errors")
            if not expect.failed and want_calls != budget(expect.shape):
                raise CheckFailed(f"{rid}: {want_calls} calls, budget {budget(expect.shape)}")
        return samples, meters

    def timed(self, seconds: float, pause=None, pauses: int = 0):
        samples, meters = self.sweep(seconds, pause=pause, pauses=pauses)
        walls = [wall for wall, _ in samples]
        return (
            _end_to_end(walls, EVAL_SLICE, list(meters.values()), self.tail_p),
            len(walls) * EVAL_SLICE,
        )

    def traced(self, seconds: float):
        plain, counted = self.sweep(0)
        tracer = Tracer()
        tracer.instrument(with_eval=True)
        traced, meters = self.sweep(0, tracer)
        tracer.dump(self.workdir / "trace.json")
        if {k: m.counts() for k, m in meters.items()} != {k: m.counts() for k, m in counted.items()}:
            raise CheckFailed("traced and untraced passes counted different calls or tokens")
        metrics = _layer(
            tracer,
            list(meters.values()),
            EVAL_WORKERS,
            sum(wall for wall, _ in plain),
            sum(wall for wall, _ in traced),
            self.load_setup_ms,
            sum(cpu for _, cpu in plain) / len(counted) * 1e3,
        )
        return metrics, len(meters)


def _expected_aggregates(kind: str, records: list) -> dict[str, float]:
    """Aggregates recomputed from the generator's expected per-record
    scores, in the report's 0-100 convention."""
    n = len(records)
    if kind != "categorize":
        labels = {"em": "EM", "f1": "F1", "p": "P", "r": "R", "b4": "B4",
                  "rl_f1": "RL_F1", "rl_p": "RL_P", "rl_r": "RL_R"}
        keys = records[0].scores
        return {labels[k]: round(sum(r.scores[k] for r in records) / n * 100, 4) for k in keys}
    out = {}
    for level, index in (("L1", 0), ("L2", 1)):
        golds = [r.gold[index] for r in records]
        preds = [r.predicted[index] if r.predicted else "" for r in records]
        accuracy = sum(1 for p, g in zip(preds, golds) if p == g) / n
        precision = recall = f1 = 0.0
        for label in dict.fromkeys(golds):
            weight = golds.count(label) / n
            hits = sum(1 for p, g in zip(preds, golds) if p == g == label)
            p = hits / preds.count(label) if preds.count(label) else 0.0
            r = hits / golds.count(label)
            f = 2 * p * r / (p + r) if (p + r) else 0.0
            precision += weight * p
            recall += weight * r
            f1 += weight * f
        for name, value in (("Acc", accuracy), ("F1", f1), ("P", precision), ("R", recall)):
            out[f"{level}_{name}"] = round(value * 100, 4)
    return out


class _SolveActions(SolveRunner):
    name = "solve-actions"
    tail_p = 75

    def generate(self, seed: int):
        return generate_solve_actions(seed, SOLVE_ACTIONS_POOL)


class _SolveTrials(SolveRunner):
    name = "solve-trials"

    def generate(self, seed: int):
        return generate_solve_trials(seed, SOLVE_TRIALS_POOL)


RUNNERS = {"solve-actions": _SolveActions, "solve-trials": _SolveTrials, "eval-batch": EvalRunner}
