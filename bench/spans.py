"""Spans around the calls into each layer, recorded from outside the
library by replacing the module attributes through which the engine
reaches each layer. Spans stay in memory and are written at exit.

A span's self time is its duration minus that of its child spans; the
children of one span run one after another on one thread, so the sum of
their durations is the part of its interval they cover.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from pathlib import Path

from socialagent import core, critic, engine, evaluation, metrics, planner, providers
from socialagent.core import DEFAULT_EARLY_STOP_MARKER

def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1]


class Patches:
    """Module attributes replaced for the length of one pass."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Span:
    __slots__ = ("name", "parent", "task", "start", "end", "note", "error")

    def __init__(self, name: str, parent: Span | None, task: str | None) -> None:
        self.name = name
        self.parent = parent
        self.task = task
        self.start = self.end = 0.0
        self.note = None
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.patches = Patches()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, task: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if task is None and parent is not None:
            task = parent.task
        span = Span(name, parent, task)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, note=None, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.note = note
        span.error = error
        self._stack().pop()

    def wrap(self, module, attr: str, name: str, *, task_of=None, note=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name, task_of(args) if task_of else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span, note(result) if note else None)
            return result

        self.patches.set(module, attr, traced)

    def instrument(self, with_eval: bool) -> None:
        """Wrap the layer entry points the engine calls."""
        wrap = self.wrap
        wrap(engine, "solve", "engine.solve", task_of=lambda a: a[0].id,
             note=lambda r: len(r.transcript))
        wrap(engine, "bootstrap_role", "engine.bootstrap_role")
        wrap(engine, "run_trials", "engine.run_trials", note=lambda o: o.trials_executed)
        wrap(engine, "execute_actions", "engine.execute_actions", note=lambda r: len(r[0]))
        wrap(engine, "reason", "reasoner.reason")
        wrap(planner, "plan", "planner.plan")
        wrap(planner, "parse_plan", "planner.parse_plan")
        wrap(engine, "optimize", "optimizer.optimize",
             note=lambda v: (len(v.history), DEFAULT_EARLY_STOP_MARKER in v.value))
        wrap(engine, "should_criticize", "divergence.should_criticize", note=lambda g: g.activate)
        wrap(engine, "criticize", "critic.criticize", note=lambda c: c.actionable)
        wrap(engine, "refine", "critic.refine")
        wrap(engine, "act", "actor.act")
        for site in (core, providers, critic):
            wrap(site, "digest", "core.digest")
        if with_eval:
            wrap(evaluation, "evaluate_record", "evaluation.evaluate_record",
                 task_of=lambda a: a[0].id)
            for scorer in ("exact_match", "token_f1", "bleu4", "rouge_l", "hierarchical_scores"):
                wrap(metrics, scorer, "metrics.scorers")

    def restore(self) -> None:
        self.patches.restore()

    def dump(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent else None,
                "task": s.task,
                "error": s.error,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")

    # -- per-layer figures -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[id(s.parent)] = covered.get(id(s.parent), 0.0) + s.duration
        return {id(s): s.duration - covered.get(id(s), 0.0) for s in self.spans}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _share(flags: list[bool]) -> float:
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0


UNITS = ("role_writer", "reasoner", "planner", "optimizer", "critic", "refiner", "actor")


def layer_metrics(tracer: Tracer, meters: list, workers: int) -> dict[str, float]:
    """Per-layer figures of one traced pass. `meters` holds one provider
    meter per solved task; counts are per task unless named a ratio."""
    solves = tracer.named("engine.solve")
    tasks = len(solves)
    events = sum(s.note or 0 for s in solves)
    selfs = tracer.self_times()
    out: dict[str, float] = {}

    for unit in UNITS:
        out[f"providers.calls.{unit}"] = sum(m.calls[unit] for m in meters) / tasks
        out[f"providers.prompt_tokens.{unit}"] = sum(m.prompt_tokens[unit] for m in meters) / tasks
    calls = sum(m.total_calls for m in meters)
    wait = sum(m.wait_s for m in meters)
    out["providers.embeds"] = sum(m.embeds for m in meters) / tasks
    out["providers.wait_ms"] = wait / tasks * 1e3
    out["providers.overlap"] = wait / sum(s.duration for s in solves)
    out["providers.busy_us_per_call"] = sum(m.busy_s for m in meters) / calls * 1e6
    out["providers.errors"] = sum(m.errors for m in meters) / tasks
    out["providers.sampling_mismatch"] = sum(m.sampling_mismatch for m in meters) / tasks

    digests = tracer.named("core.digest")
    out["core.digest.per_event"] = len(digests) / events
    out["core.digest.us_per_task"] = sum(s.duration for s in digests) / tasks * 1e6

    for name in ("bootstrap_role", "run_trials", "execute_actions"):
        out[f"engine.{name}.ms"] = _mean([s.duration for s in tracer.named(f"engine.{name}")]) * 1e3
    engine_spans = [
        s for s in tracer.spans
        if s.name in ("engine.solve", "engine.bootstrap_role", "engine.run_trials", "engine.execute_actions")
    ]
    out["engine.self_us_per_event"] = sum(selfs[id(s)] for s in engine_spans) / events * 1e6
    out["engine.trials_per_task"] = _mean([s.note for s in tracer.named("engine.run_trials")])
    out["engine.actions_per_task"] = _mean([s.note for s in tracer.named("engine.execute_actions")])

    out["reasoner.reason.calls"] = len(tracer.named("reasoner.reason")) / tasks
    out["planner.plan.calls"] = len(tracer.named("planner.plan")) / tasks
    out["planner.parse_plan.accept_ratio"] = _share(
        [not s.error for s in tracer.named("planner.parse_plan")]
    )
    optimizes = tracer.named("optimizer.optimize")
    out["optimizer.optimize.calls"] = len(optimizes) / tasks
    out["optimizer.iterations_per_optimize"] = _mean([s.note[0] for s in optimizes])
    out["optimizer.early_stop_ratio"] = _share([s.note[1] for s in optimizes])

    gates = tracer.named("divergence.should_criticize")
    out["divergence.should_criticize.calls"] = len(gates) / tasks
    out["divergence.fire_ratio"] = _share([s.note for s in gates])
    out["divergence.self_us"] = _mean([selfs[id(s)] for s in gates]) * 1e6
    critiques = tracer.named("critic.criticize")
    out["critic.criticize.calls"] = len(critiques) / tasks
    out["critic.refine.calls"] = len(tracer.named("critic.refine")) / tasks
    out["critic.actionable_ratio"] = _share([s.note for s in critiques])

    acts = tracer.named("actor.act")
    out["actor.act.calls"] = len(acts) / tasks
    out["actor.calls_per_act"] = sum(m.calls["actor"] for m in meters) / len(acts) if acts else 0.0

    records = tracer.named("evaluation.evaluate_record")
    record_ms = [s.duration * 1e3 for s in records]
    out["evaluation.evaluate_record.ms.p50"] = percentile(record_ms, 50)
    # A traced pass scores each record once, so the sample count is fixed.
    out["evaluation.evaluate_record.ms.tail"] = percentile(record_ms, 90)
    overheads = []
    for run in tracer.named("evaluation.run_eval"):
        # Records run on the pool's threads, so they are not child spans.
        inside = sum(s.duration for s in records if run.start <= s.start and s.end <= run.end)
        overheads.append(run.duration - inside / workers)
    out["evaluation.pool_overhead_ms"] = _mean(overheads) * 1e3
    scorers = tracer.named("metrics.scorers")
    out["metrics.us_per_record"] = sum(s.duration for s in scorers) / len(records) * 1e6 if records else 0.0
    out["canonical.report_us"] = _mean([s.duration for s in tracer.named("canonical.report")]) * 1e6
    return out
