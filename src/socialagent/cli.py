"""Operator entry point: solve one task, run a dataset evaluation, or
inspect the planning loop and its critic gate."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NoReturn, TypeVar

from . import canonical, engine, evaluation
from .actor import CategoryTaxonomy, ToolStore
from .core import (
    EnvironmentContext,
    ReasoningStrategy,
    StrategyKind,
    Task,
    Transcript,
)
from .errors import AgentError, ConfigError, InvariantError, MalformedInputError, TaskFailure
from .evaluation import RunSetup, TaskKind

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TASK = 2

_T = TypeVar("_T")

_STRATEGY_FLAGS = {
    "none": StrategyKind.NONE,
    "cot": StrategyKind.ZERO_SHOT_COT,
    "car": StrategyKind.COT_AND_REFLECTION,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``ConfigError``, which ``main`` reports as a
    configuration fault."""

    def error(self, message: str) -> NoReturn:  # noqa: A003
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="socialagent", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", required=True, help="run configuration file")
        sub.add_argument("--out", help="write the report here instead of stdout")
        sub.add_argument("--theta", type=float, help="override the critic gate threshold")
        sub.add_argument("--trials", type=int, help="override the planning trial budget")
        sub.add_argument(
            "--iterations", type=int, help="override the optimizer iteration count"
        )
        sub.add_argument(
            "--strategy",
            choices=tuple(_STRATEGY_FLAGS),
            help="override the reasoning strategy (few-shot comes from the config)",
        )

    solve = commands.add_parser("solve", help="run one task end to end")
    common(solve)
    solve.add_argument("--task", required=True, help="task file (canonical form)")

    evaluate = commands.add_parser("eval", help="evaluate a line-delimited dataset")
    common(evaluate)
    evaluate.add_argument("--dataset", required=True, help="records file (jsonl)")
    evaluate.add_argument(
        "--kind", required=True, choices=[k.value for k in TaskKind], help="task kind"
    )
    evaluate.add_argument("--workers", type=int, default=4, help="worker pool size")

    plan = commands.add_parser("plan", help="run only the planning loop and show the gate")
    common(plan)
    plan.add_argument("--task", required=True, help="task file (canonical form)")
    return parser


def _load_setup(
    args: argparse.Namespace,
) -> tuple[RunSetup, ToolStore | None, CategoryTaxonomy | None]:
    """The ``--config`` file, with the command line's overrides applied, and
    the stores it names; a fault in any is a config error."""
    try:
        setup = evaluation.load_setup(args.config)
        tools, taxonomy = evaluation.load_stores(setup)
    except AgentError as exc:
        raise ConfigError(f"cannot load config {args.config}: {exc}") from exc
    return _apply_overrides(setup, args), tools, taxonomy


def _load(what: str, load: Callable[..., _T], path: str, *args: object) -> _T:
    """``load(path, *args)`` for a task or dataset; a fault's message names
    the file once, as ``cannot load <what> <path>: …``. A file that cannot
    be read stays a config error; any other fault is malformed input."""
    try:
        return load(path, *args)
    except AgentError as exc:
        error = ConfigError if isinstance(exc, ConfigError) else MalformedInputError
        raise error(f"cannot load {what} {path}: {exc}") from exc


def _check_out(out: str | None) -> None:
    """Reject, before any provider call, an --out the report cannot go to."""
    if not out:
        return
    target = Path(out)
    try:
        if target.is_dir():
            raise ConfigError(f"--out {out} is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"--out {out}: {target.parent} is not a directory")
    except OSError as exc:  # a name past the file system's limit
        raise ConfigError(f"--out {out}: {exc.strerror}") from exc


def _apply_overrides(setup: RunSetup, args: argparse.Namespace) -> RunSetup:
    changes = {}
    if args.theta is not None:
        changes["theta"] = args.theta
    if args.trials is not None:
        changes["trials"] = args.trials
    if args.iterations is not None:
        changes["tgd_iterations"] = args.iterations
    if args.strategy is not None:
        changes["strategy"] = ReasoningStrategy(_STRATEGY_FLAGS[args.strategy])
    try:
        return replace(setup, engine=replace(setup.engine, **changes))
    except InvariantError as exc:
        raise ConfigError(f"invalid override: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> None:
    setup, tools, taxonomy = _load_setup(args)
    task = _load("task", canonical.load, args.task, Task)
    env = EnvironmentContext()
    response = engine.solve(task, env, setup.engine, tools=tools, taxonomy=taxonomy)
    _emit(engine.run_report(task, response), args.out)
    if response.error is not None:
        raise TaskFailure(response.failure) from response.error


def _gate_line(view: engine.TrialView) -> str:
    if view.gate is None:
        return "gate: not evaluated (final trial)"
    if view.gate.activate:
        return (
            f"gate: critic activated "
            f"(JSD {view.gate.divergence:.4f} >= θ {view.gate.theta:.4f})"
        )
    return f"gate: pass (JSD {view.gate.divergence:.4f} < θ)"


def cmd_plan(args: argparse.Namespace) -> None:
    setup = _load_setup(args)[0]
    task = _load("task", canonical.load, args.task, Task)
    units = engine.build_units(setup.engine)
    transcript = Transcript()
    role = engine.bootstrap_role(task, units, transcript=transcript)
    planned = engine.run_trials(task, setup.engine, units, role, transcript=transcript)
    lines = [f"task: {task.id}"]
    for trial, view in enumerate(planned.trial_views):
        lines += [
            f"--- trial {trial} ---",
            "plan A (planner):",
            view.plan_a_raw,
            "",
            "plan B (optimizer):",
            view.optimized_text,
            "",
            _gate_line(view),
        ]
        if view.critique is not None:
            verdict = "A" if view.critique.selected.value == "plan_a" else "B"
            lines.append(f"critique verdict: {verdict}")
            if view.critique.feedback:
                lines.append(f"critique feedback: {view.critique.feedback}")
        if view.refined is not None:
            lines.append(f"refined instructions: {view.refined.instructions}")
    lines.append(f"trials executed: {planned.trials_executed}")
    lines.append(f"executed plan actions: {[a.action_id for a in planned.plan_used.actions]}")
    _emit("\n".join(lines) + "\n", args.out)


def _print_table(report: evaluation.MetricReport) -> None:
    agg = report.aggregates
    if report.kind == "categorize":
        print(f"kind: {report.kind}  n: {report.n}", file=sys.stderr)
        print("Level    Acc     F1      P       R", file=sys.stderr)
        for key, label in (("L1", "Level-1"), ("L2", "Level-2")):
            print(
                f"{label}  {agg[f'{key}_Acc']:<7.2f} {agg[f'{key}_F1']:<7.2f} "
                f"{agg[f'{key}_P']:<7.2f} {agg[f'{key}_R']:<7.2f}",
                file=sys.stderr,
            )
        return
    columns = list(agg)
    print(f"kind: {report.kind}  n: {report.n}", file=sys.stderr)
    print("  ".join(f"{c:<7}" for c in columns), file=sys.stderr)
    print("  ".join(f"{agg[c]:<7.2f}" for c in columns), file=sys.stderr)


def cmd_eval(args: argparse.Namespace) -> None:
    kind = TaskKind(args.kind)
    setup, tools, taxonomy = _load_setup(args)
    records = _load("dataset", evaluation.load_dataset, args.dataset, kind)
    report = evaluation.run_eval(
        records,
        kind,
        setup.engine,
        tools=tools,
        taxonomy=taxonomy,
        record_scripts=setup.record_scripts,
        workers=args.workers,
    )
    _emit(canonical.serialize(report), args.out)
    _print_table(report)
    if all(record.failed for record in report.per_record):
        raise TaskFailure(f"all {report.n} records failed")


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place a fault is printed and its exit code
    picked: 1 for a configuration fault, 2 for a task fault."""
    handlers = {"solve": cmd_solve, "eval": cmd_eval, "plan": cmd_plan}
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        handlers[args.command](args)
    # only _emit's write raises a bare OSError: reads, _check_out and providers wrap theirs
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AgentError as exc:
        print(f"task failed: {exc}", file=sys.stderr)
        return EXIT_TASK
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
