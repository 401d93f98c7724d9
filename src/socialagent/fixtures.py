"""Bundled fixtures: synthetic mini-datasets, a sample knowledge store and
taxonomy, fully scripted run configurations, protocol reference sequences,
and the golden reports they must reproduce byte-for-byte."""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from collections.abc import Iterable, Iterator, Mapping
from contextlib import redirect_stderr
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

from . import canonical, cli
from .actor import CategoryTaxonomy, ToolEntry, ToolStore
from .core import ContentItem, EngineConfig, ReasoningStrategy, Task, UnitRole
from .errors import InvariantError, MalformedInputError
from .evaluation import RunSetup, TaskKind, load_dataset
from .planner import plan_block
from .protocol import ActionShape, Shape, TrialShape, signature
from .providers import Backend, MockScript, MockScriptEntry, ProviderConfig

GOLDEN_WORKERS = 2


def fixture_dir() -> Path:
    return Path(str(resources.files("socialagent"))) / "fixtures"


def fixture_path(name: str) -> Path:
    return fixture_dir() / name


# ---------------------------------------------------------------------------
# scripted plan blocks

QA_PLAN_BLOCK = plan_block(
    [(1, "Answer the question using the provided content.")],
    "a single QA action suffices",
    "The task needs one direct question-answering step.",
)

TITLE_PLAN_BLOCK = plan_block(
    [(3, "Write a concise title for the provided content.")],
    "one title-generation action",
    "A single headline-writing step covers the task.",
)

CATEGORY_PLAN_BLOCK = plan_block(
    [(4, "Classify the content into the predefined categories.")],
    "one categorization action",
    "Classification is the only required step.",
)

COMPOSITE_PLAN_BLOCK = plan_block(
    [(3, "Write a headline."), (4, "Classify the content.")],
    "summary plus classification",
    "Title first, then categorize.",
)

ALT_COMPOSITE_PLAN_BLOCK = plan_block(
    [(4, "Classify the content first."), (3, "Write a headline from the category view.")],
    "classification-led summary",
    "Reordering for better coverage.",
)

REPLAN_BLOCK = plan_block(
    [(1, "Answer the question directly, citing the passage.")],
    "focused single action",
    "Following the corrective instructions.",
)

ALT_QA_PLAN_BLOCK = plan_block(
    [(1, "Scan the passage, then answer in one sentence.")],
    "scan-then-answer",
    "An alternative breakdown.",
)

MULTI_ACTION_PLAN_BLOCK = plan_block(
    [
        (1, "State what the council passed."),
        (3, "Write a headline for the post.\nKNOWLEDGE: solar"),
        (4, "Classify the post for the monitoring feed."),
    ],
    "answer, summarize, then classify",
    "Answer, headline, then classify the post.",
)


def _reasoner_script(sites: int) -> tuple[str, ...]:
    """One trace/reflection pair per reason site. Three sites cover a config
    of at most two planning trials plus one action under a reflection
    strategy; the other strategies never consume them."""
    return tuple(
        text
        for site in range(1, sites + 1)
        for text in (f"reasoning trace {site}", f"reflection on trace {site}")
    )


def mock_config(model_name: str, *responses: str | MockScriptEntry, **kwargs) -> ProviderConfig:
    """A mock binding serving ``responses`` in order; a plain string is an
    entry without a matcher."""
    entries = tuple(r if isinstance(r, MockScriptEntry) else MockScriptEntry(r) for r in responses)
    return ProviderConfig(
        backend=Backend.MOCK, model_name=model_name, script=MockScript(entries), **kwargs
    )


def _optimizer_script(trial_blocks: list[str], action_rounds: int) -> list[str]:
    """Scripted responses for the optimizer unit: a forward/loss/gradient/
    step quartet per planning trial, then one quartet per action round."""
    script: list[str] = []
    for block in trial_blocks:
        script += ["forward prediction", "critical evaluation", "improvement feedback", block]
    for index in range(action_rounds):
        script += [
            f"action forward {index + 1}",
            f"action evaluation {index + 1}",
            f"action feedback {index + 1}",
            f"polish the response (round {index + 1})",
        ]
    return script


def mock_bindings(
    scripts: Mapping[UnitRole, Iterable[str | MockScriptEntry]],
    *,
    critic: Mapping[str, tuple[float, ...]] | None = None,
) -> dict[UnitRole, ProviderConfig]:
    """The seven mock bindings of a run: ``role-scribe`` for the role-writer
    and ``unit-<role>`` for every other unit, each serving its replies in
    ``scripts`` (none for a role left out); ``critic`` holds the critic's
    embedding overrides."""
    return {
        role: mock_config(
            "role-scribe" if role is UnitRole.ROLE_WRITER else f"unit-{role.value}",
            *scripts.get(role, ()),
            embedding_overrides=dict(critic or {}) if role is UnitRole.CRITIC else {},
        )
        for role in UnitRole
    }


def _bindings(
    writer: str,
    planner_responses: list[str],
    optimizer_blocks: list[str],
    action_rounds: int,
    *,
    actor: tuple[str, ...] = (),
    critic: tuple[str, ...] = (),
    critic_embeddings: Mapping[str, tuple[float, ...]] | None = None,
    refiner: tuple[str, ...] = (),
    reason_sites: int = 3,
) -> dict[UnitRole, ProviderConfig]:
    """All seven mock bindings of one run: the role-writer's one reply, the
    reasoner's ``reason_sites`` trace/reflection pairs, the planner's
    replies, an optimizer script of one quartet per planning trial
    (``optimizer_blocks`` are its step outputs) plus ``action_rounds`` action
    quartets, and the replies of the remaining units (none by default)."""
    return mock_bindings(
        {
            UnitRole.ROLE_WRITER: (writer,),
            UnitRole.REASONER: _reasoner_script(reason_sites),
            UnitRole.PLANNER: planner_responses,
            UnitRole.OPTIMIZER: _optimizer_script(optimizer_blocks, action_rounds),
            UnitRole.CRITIC: critic,
            UnitRole.REFINER: refiner,
            UnitRole.ACTOR: actor,
        },
        critic=critic_embeddings,
    )


def _gate_embeddings(plan_a: str, plan_b: str) -> dict[str, tuple[float, ...]]:
    """Critic embeddings that put the two plans far apart, so the gate
    fires."""
    return {plan_a: (2.0, 0.0), plan_b: (0.0, 2.0)}


# ---------------------------------------------------------------------------
# mini datasets

QA_DATASET = [
    {
        "id": "qa-01",
        "question": "What is the capital of France?",
        "answer": "paris",
        "context": ["France's capital and largest city is Paris."],
    },
    {
        "id": "qa-02",
        "question": "Which landmark dominates the Champ de Mars?",
        "answer": "the eiffel tower",
        "context": ["The Eiffel Tower stands on the Champ de Mars in Paris."],
    },
    {
        "id": "qa-03",
        "question": "What is the largest animal on Earth?",
        "answer": "blue whale",
        "context": ["The blue whale is the largest animal known to have lived."],
    },
    {
        "id": "qa-04",
        "question": "In which year did humans first land on the Moon?",
        "answer": "1969",
        "context": ["Apollo 11 landed the first humans on the Moon in 1969."],
    },
    {
        "id": "qa-05",
        "question": "Who discovered radium?",
        "answer": "marie curie",
        "context": ["Radium was discovered by Marie and Pierre Curie in 1898."],
    },
]

QA_ACTOR_SCRIPTS = {
    "qa-01": ("Checking the passage.\nANSWER: paris", "ANSWER: Paris"),
    "qa-02": ("ANSWER: tower", "ANSWER: eiffel tower paris"),
    "qa-03": ("ANSWER: a whale", "ANSWER: whale"),
    "qa-04": ("ANSWER: 1968", "ANSWER: 1969"),
    "qa-05": ("ANSWER: isaac newton", "ANSWER: albert einstein"),
}

TITLE_DATASET = [
    {
        "id": "tg-01",
        "text": "A new solar farm pushed the region's power output to an all-time high.",
        "title": "solar power reaches record output",
    },
    {
        "id": "tg-02",
        "text": "After months of debate the city council voted to fund a new park downtown.",
        "title": "city council approves new park",
    },
    {
        "id": "tg-03",
        "text": "A decade-long survey charts how the reef's coral cover has shrunk.",
        "title": "scientists map coral reef decline",
    },
    {
        "id": "tg-04",
        "text": "The family-run bakery took the top prize at the national pastry fair.",
        "title": "local bakery wins national award",
    },
    {
        "id": "tg-05",
        "text": "Heavy snow shut every pass road in the high country overnight.",
        "title": "storm closes mountain roads",
    },
]

TITLE_ACTOR_SCRIPTS = {
    "tg-01": ("TITLE: record solar output", "TITLE: solar power reaches record output"),
    "tg-02": ("TITLE: park approved", "TITLE: council approves new park plan"),
    "tg-03": ("TITLE: reef survey", "TITLE: scientists map reef decline"),
    "tg-04": ("TITLE: bakery prize", "TITLE: bakery wins award"),
    "tg-05": ("TITLE: snow news", "TITLE: severe weather update"),
}

CATEGORY_DATASET = [
    {"id": "cc-01", "text": "Club season opens on the center court.", "level1": "sport", "level2": "tennis"},
    {"id": "cc-02", "text": "The league announced its relegation rules.", "level1": "sport", "level2": "football"},
    {"id": "cc-03", "text": "Ballot counting continued through the night.", "level1": "politics", "level2": "elections"},
    {"id": "cc-04", "text": "The ministry published its housing directive.", "level1": "politics", "level2": "policy"},
    {"id": "cc-05", "text": "The probe returned images from the outer belt.", "level1": "science", "level2": "space"},
    {"id": "cc-06", "text": "Researchers sequenced the wetland microbes.", "level1": "science", "level2": "biology"},
]

CATEGORY_ACTOR_SCRIPTS = {
    "cc-01": ("CATEGORY: sport", "CATEGORY: tennis", "CATEGORY: sport", "CATEGORY: tennis"),
    "cc-02": ("CATEGORY: sport", "CATEGORY: football", "CATEGORY: sport", "CATEGORY: tennis"),
    "cc-03": ("CATEGORY: politics", "CATEGORY: elections", "CATEGORY: politics", "CATEGORY: elections"),
    "cc-04": ("CATEGORY: politics", "CATEGORY: policy", "CATEGORY: science", "CATEGORY: space"),
    "cc-05": ("CATEGORY: science", "CATEGORY: space", "CATEGORY: science", "CATEGORY: space"),
    "cc-06": ("CATEGORY: science", "CATEGORY: biology", "CATEGORY: science", "CATEGORY: space"),
}


def taxonomy() -> CategoryTaxonomy:
    return CategoryTaxonomy(
        level1=("sport", "politics", "science"),
        level2={
            "sport": ("tennis", "football"),
            "politics": ("elections", "policy"),
            "science": ("space", "biology"),
        },
    )


def toolstore() -> ToolStore:
    return ToolStore(
        entries={
            "solar": ToolEntry(
                title="Solar energy basics",
                facts=(
                    "Photovoltaic cells convert sunlight directly into electricity.",
                    "Grid output peaks around midday for solar farms.",
                ),
            ),
            "reef": ToolEntry(
                title="Coral reef ecology",
                facts=("Coral bleaching is driven by sustained heat stress.",),
            ),
        }
    )


_ANALYST = "You are a careful social-content analyst."


def _eval_setup(
    plan_block: str, actor_scripts: dict[str, tuple[str, ...]], taxonomy_path: str | None = None
) -> RunSetup:
    """One planning trial of ``plan_block`` and one action per record; the
    actor's replies come from the per-record overrides."""
    bindings = _bindings(_ANALYST, [plan_block], [plan_block], 1)
    return RunSetup(
        engine=EngineConfig(role_bindings=bindings, trials=1, strategy=ReasoningStrategy()),
        taxonomy_path=taxonomy_path,  # resolved against the config file's directory
        record_scripts={
            record_id: {UnitRole.ACTOR: MockScript.of(*script).entries}
            for record_id, script in actor_scripts.items()
        },
    )


def qa_setup() -> RunSetup:
    return _eval_setup(QA_PLAN_BLOCK, QA_ACTOR_SCRIPTS)


def title_setup() -> RunSetup:
    return _eval_setup(TITLE_PLAN_BLOCK, TITLE_ACTOR_SCRIPTS)


def category_setup() -> RunSetup:
    return _eval_setup(CATEGORY_PLAN_BLOCK, CATEGORY_ACTOR_SCRIPTS, "taxonomy.json")


# ---------------------------------------------------------------------------
# single-task solve / plan fixtures

def example_task() -> Task:
    return Task(
        id="example-001",
        goal="Answer the question using the provided content.",
        inputs=(
            ContentItem.from_text("Question: Which landmark dominates the Champ de Mars?"),
            ContentItem.from_text("The Eiffel Tower stands on the Champ de Mars in Paris."),
        ),
        allowed_actions=frozenset({1}),
    )


def solve_setup() -> RunSetup:
    bindings = _bindings(
        _ANALYST,
        [QA_PLAN_BLOCK],
        [QA_PLAN_BLOCK],
        1,
        actor=("ANSWER: a tower", "ANSWER: the eiffel tower"),
    )
    return RunSetup(
        engine=EngineConfig(
            role_bindings=bindings, trials=2, strategy=ReasoningStrategy.zero_shot_cot()
        )
    )


def plan_task() -> Task:
    return Task(
        id="plan-demo-001",
        goal="Summarize the post and classify it for the monitoring feed.",
        inputs=(ContentItem.from_text("Post: the council passed the new parks budget today."),),
        allowed_actions=frozenset({1, 3, 4}),
    )


_PLANNER_WRITER = "You are a planning analyst."


def plan_identical_setup() -> RunSetup:
    """Optimizer echoes the planner's output: the gate sees divergence 0."""
    bindings = _bindings(_PLANNER_WRITER, [COMPOSITE_PLAN_BLOCK], [COMPOSITE_PLAN_BLOCK], 0)
    return RunSetup(
        engine=EngineConfig(role_bindings=bindings, trials=2, strategy=ReasoningStrategy())
    )


def plan_divergent_setup() -> RunSetup:
    """Optimizer rewrites the plan; forced embeddings make the gate fire,
    the critic prefers plan A, and the refiner feeds a replan."""
    bindings = _bindings(
        _PLANNER_WRITER,
        [COMPOSITE_PLAN_BLOCK, COMPOSITE_PLAN_BLOCK],
        [ALT_COMPOSITE_PLAN_BLOCK, COMPOSITE_PLAN_BLOCK],
        0,
        critic=("VERDICT: A\nFEEDBACK: Keep the headline first; classification should use it.",),
        critic_embeddings=_gate_embeddings(COMPOSITE_PLAN_BLOCK, ALT_COMPOSITE_PLAN_BLOCK),
        refiner=("Keep the title action before categorization and reuse its output.",),
    )
    return RunSetup(
        engine=EngineConfig(
            role_bindings=bindings, theta=0.05, trials=2, strategy=ReasoningStrategy()
        )
    )


def multi_action_setup() -> RunSetup:
    """The plan task solved by one reflection-reasoned planning trial and
    three actions (QA, a title drawing on the knowledge store, two-level
    categorization): four reason sites, one per action after the trial."""
    bindings = _bindings(
        _PLANNER_WRITER,
        [MULTI_ACTION_PLAN_BLOCK],
        [MULTI_ACTION_PLAN_BLOCK],
        3,
        actor=(
            "ANSWER: a budget",
            "ANSWER: the new parks budget",
            "TITLE: council budget",
            "TITLE: council passes new parks budget",
            "CATEGORY: politics",
            "CATEGORY: policy",
            "CATEGORY: politics",
            "CATEGORY: policy",
        ),
        reason_sites=4,
    )
    return RunSetup(
        engine=EngineConfig(
            role_bindings=bindings, trials=1, strategy=ReasoningStrategy.cot_and_reflection()
        ),
        toolstore_path="toolstore.json",  # resolved against the config file's directory
        taxonomy_path="taxonomy.json",
    )


# ---------------------------------------------------------------------------
# protocol scenarios. `regenerate` writes each committed
# `scenario_*_sequence.json` from `protocol.signature` of its shape; the
# acceptance tests compare a live solve's transcript with it, and the bench
# tests compare the bench shapes' signatures and call budgets with it.

_QA = (ActionShape(a=1, k=1),)
SCENARIO_SHAPES = {
    # gate passes on trial 0: break straight to action execution
    "scenario_a": Shape(False, (TrialShape(k=1, gate=True),), _QA),
    # gate fires on trial 0: one critic + one refiner, one replan cycle
    "scenario_b": Shape(False, (TrialShape(1, True, True, True), TrialShape(k=1)), _QA),
    # single trial: the gate is never evaluated
    "scenario_c": Shape(False, (TrialShape(k=1),), _QA),
}
SCENARIO_SEQUENCES = {name: signature(shape) for name, shape in SCENARIO_SHAPES.items()}


def scenario_task() -> Task:
    return Task(
        id="scenario-001",
        goal="Answer the question using the provided content.",
        inputs=(ContentItem.from_text("Question: what did the probe photograph?"),),
        allowed_actions=frozenset({1}),
    )


def scenario_setup(name: str) -> RunSetup:
    """Scenarios A and C plan once and differ only in the trial budget;
    scenario B's gate fires and its refiner feeds one replan."""
    if name not in SCENARIO_SEQUENCES:
        raise InvariantError(f"unknown scenario {name!r}")
    writer = "You are a careful analyst."
    actor = ("ANSWER: the outer belt", "ANSWER: the outer asteroid belt")
    if name == "scenario_b":
        bindings = _bindings(
            writer,
            [QA_PLAN_BLOCK, REPLAN_BLOCK],
            [ALT_QA_PLAN_BLOCK, REPLAN_BLOCK],
            1,
            actor=actor,
            critic=("VERDICT: A\nFEEDBACK: Tie the answer to the cited passage.",),
            critic_embeddings=_gate_embeddings(QA_PLAN_BLOCK, ALT_QA_PLAN_BLOCK),
            refiner=("Plan a single QA action citing the passage.",),
        )
    else:
        bindings = _bindings(writer, [QA_PLAN_BLOCK], [QA_PLAN_BLOCK], 1, actor=actor)
    engine_config = EngineConfig(
        role_bindings=bindings,
        trials=1 if name == "scenario_c" else 2,
        strategy=ReasoningStrategy.zero_shot_cot(),
    )
    return RunSetup(engine=engine_config)


# ---------------------------------------------------------------------------
# regeneration and integrity checking

_DATASETS = {
    "mini_qa.jsonl": (QA_DATASET, TaskKind.QA),
    "mini_title.jsonl": (TITLE_DATASET, TaskKind.TITLE),
    "mini_category.jsonl": (CATEGORY_DATASET, TaskKind.CATEGORIZE),
}


def _dataset_text(rows: list[dict]) -> str:
    return "\n".join(json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows) + "\n"


# Every bundled run configuration, by file name.
_SETUPS = {
    "qa_eval_config.json": qa_setup,
    "title_eval_config.json": title_setup,
    "category_eval_config.json": category_setup,
    "solve_config.json": solve_setup,
    "plan_identical_config.json": plan_identical_setup,
    "plan_divergent_config.json": plan_divergent_setup,
    "multi_action_config.json": multi_action_setup,
    **{f"{name}_config.json": partial(scenario_setup, name) for name in SCENARIO_SEQUENCES},
}


# The CLI command that writes each golden report, spelled only here;
# ``{dir}`` is the directory holding the other fixture files.
_GOLDENS = {
    "golden_qa_report.json": "eval --config {dir}/qa_eval_config.json"
    " --dataset {dir}/mini_qa.jsonl --kind qa --workers {workers}",
    "golden_title_report.json": "eval --config {dir}/title_eval_config.json"
    " --dataset {dir}/mini_title.jsonl --kind title --workers {workers}",
    "golden_category_report.json": "eval --config {dir}/category_eval_config.json"
    " --dataset {dir}/mini_category.jsonl --kind categorize --workers {workers}",
    "golden_solve_report.json": "solve --config {dir}/solve_config.json"
    " --task {dir}/example_task.json",
    "golden_multi_action_solve_report.json": "solve --config {dir}/multi_action_config.json"
    " --task {dir}/plan_task.json",
    "golden_plan_divergent.txt": "plan --config {dir}/plan_divergent_config.json"
    " --task {dir}/plan_task.json",
    "golden_plan_identical.txt": "plan --config {dir}/plan_identical_config.json"
    " --task {dir}/plan_task.json",
}


def golden_argv(name: str, directory: Path | None = None) -> list[str]:
    """The CLI arguments of golden ``name``'s command, run on the fixture
    files in ``directory`` (the bundle by default) and writing to stdout."""
    directory = directory or fixture_dir()
    return [arg.format(dir=directory, workers=GOLDEN_WORKERS) for arg in _GOLDENS[name].split()]


def _write_golden(directory: Path, name: str) -> None:
    """Run the CLI command of golden ``name`` on the fixture files in
    ``directory``, writing its report there; a command that exits non-zero
    raises ``InvariantError`` carrying the command's stderr."""
    args = [*golden_argv(name, directory), "--out", str(directory / name)]
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        status = cli.main(args)
    if status:
        raise InvariantError(
            f"{name}: socialagent {' '.join(args)} exited {status}: {stderr.getvalue().strip()}"
        )


def regenerate(target: Path) -> list[str]:
    """Write every fixture file (datasets, stores, configs, reference
    sequences) into ``target``, then write each golden report there by
    running the CLI's own ``solve``, ``eval`` or ``plan`` on the files
    written."""
    target.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def write(name: str, text: str) -> None:
        (target / name).write_text(text, encoding="utf-8")
        written.append(name)

    for name, (rows, _) in _DATASETS.items():
        write(name, _dataset_text(rows))
    write("taxonomy.json", canonical.serialize(taxonomy()))
    write("toolstore.json", canonical.serialize(toolstore()))

    for name, setup in _SETUPS.items():
        write(name, canonical.serialize(setup()))

    write("example_task.json", canonical.serialize(example_task()))
    write("plan_task.json", canonical.serialize(plan_task()))
    write("scenario_task.json", canonical.serialize(scenario_task()))

    for name, sequence in SCENARIO_SEQUENCES.items():
        write(
            f"{name}_sequence.json",
            canonical.dumps({"sequence": [list(pair) for pair in sequence]}),
        )

    for name in _GOLDENS:
        _write_golden(target, name)
        written.append(name)
    return written


def _load_failure(path: Path) -> str | None:
    """Why the fixture file at ``path`` does not load: a dataset short of
    its full record count, or a ``.json`` file holding a canonical kind
    that does not load; None if it loads. Text goldens are only compared."""
    try:
        if path.name in _DATASETS:
            rows, kind = _DATASETS[path.name]
            if len(load_dataset(path, kind)) != len(rows):
                return "record count mismatch"
        elif path.suffix == ".json" and "kind" in canonical.parse_text(
            path.read_bytes(), "fixture"
        ):
            canonical.load(path)
    except Exception as exc:  # report-style: collect, never raise
        return str(exc)
    return None


@dataclass(frozen=True)
class IntegrityReport:
    checked: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _differing_paths(committed: object, regenerated: object, path: str = "") -> Iterator[str]:
    """The paths (``value.engine.theta``, ``transcript[3].seq``) at which two
    parsed JSON values differ."""
    if isinstance(committed, dict) and isinstance(regenerated, dict):
        for key in sorted(committed.keys() | regenerated.keys()):
            where = f"{path}.{key}" if path else key
            if key in committed and key in regenerated:
                yield from _differing_paths(committed[key], regenerated[key], where)
            else:
                yield where
    elif isinstance(committed, list) and isinstance(regenerated, list):
        common = min(len(committed), len(regenerated))
        for i in range(common):
            yield from _differing_paths(committed[i], regenerated[i], f"{path}[{i}]")
        if len(committed) != len(regenerated):
            yield f"{path}[{common}:]"
    elif type(committed) is not type(regenerated) or committed != regenerated:
        yield path or "$"


def _where(committed: bytes, regenerated: bytes) -> str:
    """`` at <path>, ...`` naming where two JSON files differ in value; empty
    for a file that is not JSON or differs only in its bytes."""
    try:
        old, new = (canonical.parse_text(text, "fixture") for text in (committed, regenerated))
    except MalformedInputError:
        return ""
    paths = list(_differing_paths(old, new))
    return f" at {', '.join(paths)}" if paths else ""


def fixture_integrity_check() -> IntegrityReport:
    """Regenerate every fixture into a scratch directory and report each
    bundled file that differs from its regeneration byte for byte, with the
    JSON paths that differ, each one that matches but does not load, and
    each one that no regeneration writes."""
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        names = regenerate(Path(scratch))
        for name in names:
            try:
                committed = fixture_path(name).read_bytes()
            except OSError as exc:
                failures.append(f"{name}: {exc}")
                continue
            regenerated = (Path(scratch) / name).read_bytes()
            if committed != regenerated:
                failures.append(
                    f"{name}: differs from its regeneration{_where(committed, regenerated)}"
                )
            elif why := _load_failure(fixture_path(name)):
                failures.append(f"{name}: {why}")
    bundled = {path.name for path in fixture_dir().iterdir() if path.is_file()}
    failures += [f"{name}: written by no regeneration" for name in sorted(bundled - set(names))]
    return IntegrityReport(checked=tuple(names), failures=tuple(failures))


def main() -> int:
    """Regenerate every fixture file into a scratch directory and check
    each one there; only if every check passes are they copied into the
    bundle. 1, with the bundle untouched, if a golden's command fails or a
    check fails."""
    with tempfile.TemporaryDirectory() as scratch:
        staged = Path(scratch)
        try:
            names = regenerate(staged)
        except InvariantError as exc:  # a golden's command exited non-zero
            print(f"regeneration failed: {exc}")
            return 1
        failures = [f"{name}: {why}" for name in names if (why := _load_failure(staged / name))]
        print("integrity:", "FAILED" if failures else "ok")
        for failure in failures:
            print(" -", failure)
        if failures:
            return 1
        for name in names:
            shutil.copyfile(staged / name, fixture_path(name))
    print(f"wrote {len(names)} fixture files to {fixture_dir()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
