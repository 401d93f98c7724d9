"""The benchmark's tracer reaches each layer by replacing the module
attributes the engine calls through (``bench/spans.py``). A refactor that
renames or bypasses one of them would leave its span unrecorded; this check
runs the tracer over a gate-firing solve, a multi-action solve and a QA eval,
so such a refactor fails here rather than only in a traced benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

from socialagent import engine, fixtures
from socialagent.core import EnvironmentContext
from socialagent.evaluation import TaskKind, load_dataset, load_setup, load_stores, run_eval
from socialagent.fixtures import fixture_path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_patched_layer_records_its_span_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")

    class RecordingTracer(spans.Tracer):
        def __init__(self) -> None:
            super().__init__()
            self.wrapped: list[tuple[object, str, str, object]] = []

        def wrap(self, module, attr, name, **kwargs) -> None:
            self.wrapped.append((module, attr, name, getattr(module, attr)))
            super().wrap(module, attr, name, **kwargs)

    tracer = RecordingTracer()
    tracer.instrument(with_eval=True)
    try:
        env = EnvironmentContext()
        setup = fixtures.scenario_setup("scenario_b")
        assert engine.solve(fixtures.scenario_task(), env, setup.engine).error is None
        setup = load_setup(fixture_path("multi_action_config.json"))
        tools, taxonomy = load_stores(setup)
        response = engine.solve(
            fixtures.plan_task(), env, setup.engine, tools=tools, taxonomy=taxonomy
        )
        assert response.error is None
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        run_eval(
            records, TaskKind.QA, setup.engine, record_scripts=setup.record_scripts, workers=4
        )
    finally:
        tracer.restore()

    assert tracer.wrapped
    recorded = {span.name for span in tracer.spans}
    assert {name for _, _, name, _ in tracer.wrapped} - recorded == set()
    for module, attr, _, original in tracer.wrapped:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
