"""Dataset loading, single-attempt evaluation runs over the engine, and
metric reports in the 0-100 convention."""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import TypeVar

from . import canonical, engine, metrics
from .actor import (
    CategoryPair,
    CategoryTaxonomy,
    ToolStore,
    load_taxonomy,
    load_toolstore,
)
from .core import ContentItem, EngineConfig, EnvironmentContext, Task, UnitRole
from .errors import AgentError, ConfigError, InvariantError, MalformedInputError
from .providers import Backend, MockScript, MockScriptEntry

REPORT_DECIMALS = 4

_T = TypeVar("_T")


class TaskKind(Enum):
    QA = "qa"
    VQA = "vqa"
    TITLE = "title"
    CATEGORIZE = "categorize"


# The one action a task of each kind may run, and the goal it states.
_KIND_TASKS = {
    TaskKind.QA: (1, "Answer the question using the provided content."),
    TaskKind.VQA: (2, "Answer the question using the provided multimodal content."),
    TaskKind.TITLE: (3, "Generate a concise title for the provided content."),
    TaskKind.CATEGORIZE: (4, "Classify the provided content into the predefined categories."),
}


@dataclass(frozen=True)
class EvalRecord:
    id: str
    inputs: tuple[ContentItem, ...]
    gold: str = ""
    gold_category: CategoryPair | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.id:
            raise InvariantError("record id must be non-empty")
        if bool(self.gold) == (self.gold_category is not None):
            raise InvariantError("record needs exactly one of gold text or gold category")


@dataclass(frozen=True)
class RecordScore:
    id: str
    scores: dict[str, float]
    failed: bool


@dataclass(frozen=True)
class DisagreementEntry:
    gold: str
    predicted: str
    count: int


@dataclass(frozen=True)
class MetricReport:
    kind: str
    per_record: tuple[RecordScore, ...]
    aggregates: dict[str, float]
    disagreements: dict[str, tuple[DisagreementEntry, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_record", tuple(self.per_record))

    @property
    def n(self) -> int:
        return len(self.per_record)


@dataclass(frozen=True)
class RunSetup:
    """Operator configuration: the engine knobs plus harness extras (paths
    to bundled stores and, for mock runs, per-record script overrides)."""

    engine: EngineConfig
    toolstore_path: str | None = None
    taxonomy_path: str | None = None
    record_scripts: dict[str, dict[UnitRole, tuple[MockScriptEntry, ...]]] = field(
        default_factory=dict
    )


def load_setup(path: str | Path) -> RunSetup:
    """Read a run configuration; store paths given as relative are resolved
    against the config file's own directory."""
    path = Path(path)
    value = canonical.load(path, RunSetup)
    base = path.resolve().parent

    def resolve(store_path: str | None) -> str | None:
        if store_path is None or Path(store_path).is_absolute():
            return store_path
        return str(base / store_path)

    return replace(
        value,
        toolstore_path=resolve(value.toolstore_path),
        taxonomy_path=resolve(value.taxonomy_path),
    )


def load_stores(setup: RunSetup) -> tuple[ToolStore | None, CategoryTaxonomy | None]:
    """The knowledge store and taxonomy a run configuration names, if any; a
    store that cannot be read or does not load is a ``ConfigError`` naming
    its file once, as ``toolstore <path>: …`` or ``taxonomy <path>: …``."""
    return (
        _load_store("toolstore", load_toolstore, setup.toolstore_path),
        _load_store("taxonomy", load_taxonomy, setup.taxonomy_path),
    )


def _load_store(what: str, load: Callable[[str], _T], path: str | None) -> _T | None:
    try:
        return load(path) if path else None
    except AgentError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def _require_str(payload: dict, *names: str) -> str:
    for name in names:
        value = payload.get(name)
        if isinstance(value, str) and value.strip():
            return value
    present = [name for name in names if name in payload]
    if present:
        raise MalformedInputError(f"field {present[0]!r} must be a non-empty string")
    raise MalformedInputError(f"missing field (one of: {', '.join(names)})")


def _context_passages(payload: dict) -> tuple[str, ...]:
    raw = payload.get("context")
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise MalformedInputError("context must be a list of passages")
    passages: list[str] = []
    for item in raw:
        if isinstance(item, str):
            passages.append(item)
        elif (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], list)
            and all(isinstance(sentence, str) for sentence in item[1])
        ):
            # multi-hop layout: [title, [sentences...]]
            passages.append(item[0] + ": " + " ".join(item[1]))
        else:
            raise MalformedInputError(f"context passage {item!r} is not text")
    return tuple(passages)


def _image_items(payload: dict) -> tuple[ContentItem, ...]:
    images = payload.get("images")
    if images is None:
        return ()
    if not isinstance(images, list):
        raise MalformedInputError("images must be a list")
    items = []
    for image in images:
        fields = image if isinstance(image, dict) else {}
        location, media_type = fields.get("location"), fields.get("media_type", "image/jpeg")
        if not all(isinstance(value, str) and value for value in (location, media_type)):
            raise MalformedInputError(f"image {image!r} needs a non-empty location and media_type")
        items.append(ContentItem.from_image(location, media_type))
    return tuple(items)


def _parse_record(payload: object, kind: TaskKind) -> EvalRecord:
    if not isinstance(payload, dict):
        raise MalformedInputError("record must be an object")
    record_id = _require_str(payload, "id", "_id")
    if kind in (TaskKind.QA, TaskKind.VQA):
        question = _require_str(payload, "question")
        gold = _require_str(payload, "answer", "gold")
        inputs = (ContentItem.from_text(f"Question: {question}"),)
        inputs += tuple(ContentItem.from_text(p) for p in _context_passages(payload))
        inputs += _image_items(payload)
        return EvalRecord(id=record_id, inputs=inputs, gold=gold)
    if kind is TaskKind.TITLE:
        text = _require_str(payload, "text", "section_text")
        gold = _require_str(payload, "title", "gold")
        inputs = (ContentItem.from_text(text),) + _image_items(payload)
        return EvalRecord(id=record_id, inputs=inputs, gold=gold)
    text = _require_str(payload, "text")
    level1 = _require_str(payload, "level1", "category_level_1")
    level2 = _require_str(payload, "level2", "category_level_2")
    return EvalRecord(
        id=record_id,
        inputs=(ContentItem.from_text(text),),
        gold_category=CategoryPair(level1=level1, level2=level2),
    )


def load_dataset(path: str | Path, kind: TaskKind) -> list[EvalRecord]:
    """Read line-delimited records in the public layout of each benchmark
    family; a record's fault is a ``MalformedInputError`` whose message
    starts ``line <n>: ``."""
    records: list[EvalRecord] = []
    # record scripts and report order are keyed by id, so an id may not repeat
    first_lines: dict[str, int] = {}
    # "\n" only: str.splitlines() also breaks on U+2028, U+2029 and U+0085,
    # which JSON strings may hold raw
    for number, raw_line in enumerate(canonical.read_text(path).split("\n"), start=1):
        if not raw_line.strip():
            continue
        try:
            record = _parse_record(canonical.parse_text(raw_line, "record"), kind)
        except MalformedInputError as exc:
            raise MalformedInputError(f"line {number}: {exc}") from exc
        first = first_lines.setdefault(record.id, number)
        if first != number:
            raise MalformedInputError(
                f"line {number}: record id {record.id!r} repeats the record on line {first}"
            )
        records.append(record)
    return records


def build_task(record: EvalRecord, kind: TaskKind) -> Task:
    action_id, goal = _KIND_TASKS[kind]
    return Task(
        id=record.id, goal=goal, inputs=record.inputs, allowed_actions=frozenset({action_id})
    )


def _with_record_scripts(
    config: EngineConfig, overrides: dict[UnitRole, tuple[MockScriptEntry, ...]]
) -> EngineConfig:
    if not overrides:
        return config
    bindings = dict(config.role_bindings)
    for role, entries in overrides.items():
        bindings[role] = replace(bindings[role], script=MockScript(tuple(entries)))
    return replace(config, role_bindings=bindings)


# The per-record score keys of each kind, in report order; a text kind's
# aggregate of a key is labelled ``key.upper()``.
_SCORE_KEYS = {
    TaskKind.QA: ("em", "f1", "p", "r"),
    TaskKind.VQA: ("em", "f1", "p", "r"),
    TaskKind.TITLE: ("em", "b4", "rl_f1", "rl_p", "rl_r"),
    TaskKind.CATEGORIZE: ("l1_correct", "l2_correct"),
}


def _labels(pair: object) -> tuple[str, str]:
    """A category pair's (level1, level2) labels; anything else has empty ones."""
    return (pair.level1, pair.level2) if isinstance(pair, CategoryPair) else ("", "")


def _score(kind: TaskKind, prediction: str | CategoryPair, record: EvalRecord) -> dict[str, float]:
    if kind is TaskKind.CATEGORIZE:
        pred, gold = _labels(prediction), _labels(record.gold_category)
        return {"l1_correct": float(pred[0] == gold[0]), "l2_correct": float(pred[1] == gold[1])}
    gold = record.gold
    if kind in (TaskKind.QA, TaskKind.VQA):
        overlap = metrics.token_f1(prediction, gold)
        return {
            "em": float(metrics.exact_match(prediction, gold)),
            "f1": overlap.f1,
            "p": overlap.precision,
            "r": overlap.recall,
        }
    rouge = metrics.rouge_l(prediction, gold)
    return {
        "em": float(metrics.exact_match(prediction, gold)),
        "b4": metrics.bleu4(prediction, gold),
        "rl_f1": rouge.f1,
        "rl_p": rouge.precision,
        "rl_r": rouge.recall,
    }


@dataclass(frozen=True)
class RecordOutcome:
    record: EvalRecord
    prediction: str | CategoryPair | None
    scores: dict[str, float]

    @property
    def failed(self) -> bool:
        return self.prediction is None


def evaluate_record(
    record: EvalRecord,
    kind: TaskKind,
    config: EngineConfig,
    *,
    tools: ToolStore | None = None,
    taxonomy: CategoryTaxonomy | None = None,
    record_scripts: dict[str, dict[UnitRole, tuple[MockScriptEntry, ...]]] | None = None,
) -> RecordOutcome:
    """One engine run for one record (single attempt, fresh providers);
    any failure scores zero and is flagged rather than raised, except
    configuration errors, which no record can survive. The prediction is
    the last result of a run whose ``error`` is None: a task from build_task
    allows only the kind's action, so every result is that action's. A
    categorize result without a category pair fails its record."""
    effective = _with_record_scripts(config, (record_scripts or {}).get(record.id, {}))
    task = build_task(record, kind)
    try:
        response = engine.solve(
            task, EnvironmentContext(), effective, tools=tools, taxonomy=taxonomy
        )
    except ConfigError:
        raise
    except Exception:  # any other error fails only its record, not the whole eval
        response = None
    prediction = None
    if response is not None and response.error is None:
        last = response.results[-1]
        if kind is not TaskKind.CATEGORIZE:
            prediction = last.answer
        elif isinstance(last.structured, CategoryPair):
            prediction = last.structured
    if prediction is None:
        return RecordOutcome(record, None, dict.fromkeys(_SCORE_KEYS[kind], 0.0))
    return RecordOutcome(record, prediction, _score(kind, prediction, record))


def _round(value: float) -> float:
    return round(value, REPORT_DECIMALS)


Labels = list[tuple[str, str]]


def _category_aggregates(preds: Labels, golds: Labels) -> dict[str, float]:
    levels = metrics.hierarchical_scores(preds, golds)
    aggregates = {}
    for name, key in (("level1", "L1"), ("level2", "L2")):
        scores = levels[name]
        aggregates[f"{key}_Acc"] = _round(scores.accuracy * 100)
        aggregates[f"{key}_F1"] = _round(scores.f1 * 100)
        aggregates[f"{key}_P"] = _round(scores.precision * 100)
        aggregates[f"{key}_R"] = _round(scores.recall * 100)
    return aggregates


def _disagreements(preds: Labels, golds: Labels) -> dict[str, tuple[DisagreementEntry, ...]]:
    """Mismatch counts per (gold, predicted) pair at each level, most
    frequent first."""
    report: dict[str, tuple[DisagreementEntry, ...]] = {}
    for level, index in (("level1", 0), ("level2", 1)):
        counts: dict[tuple[str, str], int] = {}
        for pred, gold in zip(preds, golds):
            if pred[index] != gold[index]:
                key = (gold[index], pred[index])
                counts[key] = counts.get(key, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        report[level] = tuple(
            DisagreementEntry(gold=g, predicted=p, count=c) for (g, p), c in ordered
        )
    return report


def run_eval(
    dataset: list[EvalRecord],
    task_kind: TaskKind,
    config: EngineConfig,
    *,
    tools: ToolStore | None = None,
    taxonomy: CategoryTaxonomy | None = None,
    record_scripts: dict[str, dict[UnitRole, tuple[MockScriptEntry, ...]]] | None = None,
    workers: int,
) -> MetricReport:
    """Evaluate every record with exactly one engine run each, then report
    per-record scores and 0-100 aggregates, ordered by record id."""
    if not dataset:
        raise InvariantError("dataset must contain at least one record")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    # record scripts override bindings, so every role must be bound first
    engine.check_config(config, (item for record in dataset for item in record.inputs))
    # a script replaces a mock's responses; a live backend would never read it
    for record in dataset:
        for role in (record_scripts or {}).get(record.id, {}):
            backend = config.role_bindings[role].backend
            if backend is not Backend.MOCK:
                raise ConfigError(
                    f"record {record.id!r}: its {role.value} script needs a mock binding, "
                    f"not {backend.value}"
                )
    if task_kind is TaskKind.CATEGORIZE:
        # every categorize gold is a level-1/level-2 pair, so a flat taxonomy fails every record
        if taxonomy is None or not taxonomy.is_hierarchical():
            raise ConfigError("a categorize eval needs a two-level taxonomy (taxonomy_path)")
        # the actor answers only with taxonomy labels, so no other gold label can be scored
        for record in dataset:
            level1, level2 = _labels(record.gold_category)
            if level2 not in taxonomy.children(level1):
                label = level2 if level1 in taxonomy.level1 else level1
                raise ConfigError(
                    f"record {record.id!r}: gold label {label!r} is not in the taxonomy"
                )

    def work(record: EvalRecord) -> RecordOutcome:
        return evaluate_record(
            record,
            task_kind,
            config,
            tools=tools,
            taxonomy=taxonomy,
            record_scripts=record_scripts,
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(work, dataset))
    outcomes.sort(key=lambda outcome: outcome.record.id)

    per_record = tuple(
        RecordScore(
            id=outcome.record.id,
            scores={k: _round(v) for k, v in sorted(outcome.scores.items())},
            failed=outcome.failed,
        )
        for outcome in outcomes
    )
    disagreements = None
    if task_kind is TaskKind.CATEGORIZE:
        preds = [_labels(o.prediction) for o in outcomes]
        golds = [_labels(o.record.gold_category) for o in outcomes]
        aggregates = _category_aggregates(preds, golds)
        disagreements = _disagreements(preds, golds)
    else:
        n = len(outcomes)
        aggregates = {
            key.upper(): _round(sum(o.scores[key] for o in outcomes) / n * 100)
            for key in _SCORE_KEYS[task_kind]
        }
    return MetricReport(
        kind=task_kind.value,
        per_record=per_record,
        aggregates=aggregates,
        disagreements=disagreements,
    )
