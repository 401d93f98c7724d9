"""Execution of the four content-analysis actions over multimodal inputs,
with a static read-only knowledge store the prompts can draw on."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import canonical
from .core import (
    ACTION_NAMES_BY_ID,
    ActionName,
    ActionSpec,
    ContentItem,
    PromptArtifact,
    Transcript,
    UnitRole,
)
from .errors import ActionParseError, InvariantError
from .providers import Provider, invoke

ANSWER_PREFIX = "ANSWER:"
TITLE_PREFIX = "TITLE:"
CATEGORY_PREFIX = "CATEGORY:"
# joins a two-level category answer; no category name may contain it
PAIR_SEPARATOR = " / "

# Instructions may request store facts with a line "KNOWLEDGE: <query>"; the
# query is the rest of that line, and a blank one requests nothing.
_KNOWLEDGE_DIRECTIVE = re.compile(r"^KNOWLEDGE:(.*)$", re.MULTILINE)


@dataclass(frozen=True)
class ToolEntry:
    title: str
    facts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", tuple(self.facts))


@dataclass(frozen=True)
class ToolStore:
    """Static factual knowledge, immutable after load."""

    entries: dict[str, ToolEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class CategoryPair:
    level1: str
    level2: str


@dataclass(frozen=True)
class CategoryTaxonomy:
    """Predefined categories: top-level names plus their children."""

    level1: tuple[str, ...]
    level2: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "level1", tuple(self.level1))
        object.__setattr__(
            self, "level2", {k: tuple(v) for k, v in self.level2.items()}
        )
        if not self.level1:
            raise InvariantError("taxonomy requires at least one level-1 category")
        if len(set(self.level1)) != len(self.level1):
            raise InvariantError("level-1 names must be unique")
        unknown_parents = set(self.level2) - set(self.level1)
        if unknown_parents:
            raise InvariantError(f"level-2 parents not in level-1: {sorted(unknown_parents)}")
        seen: dict[str, str] = {}
        for parent, children in self.level2.items():
            for child in children:
                if child in seen:
                    raise InvariantError(
                        f"category {child!r} appears under both {seen[child]!r} and {parent!r}"
                    )
                seen[child] = parent
        if any(PAIR_SEPARATOR in name for name in (*self.level1, *seen)):
            raise InvariantError(f"category names may not contain {PAIR_SEPARATOR!r}")

    def children(self, level1_name: str) -> tuple[str, ...]:
        return self.level2.get(level1_name, ())

    def is_hierarchical(self) -> bool:
        return any(self.level2.get(name) for name in self.level1)


@dataclass(frozen=True)
class ActionResult:
    action_id: int
    answer: str

    def __post_init__(self) -> None:
        if self.action_id not in ACTION_NAMES_BY_ID:
            raise InvariantError(f"unknown action id {self.action_id}")
        if not self.answer.strip():
            raise InvariantError("action result answer must be non-empty")

    @property
    def structured(self) -> CategoryPair | str | None:
        """The answer as its action defines it: None for QA and VQA, the
        answer itself for a title or a flat category, and the pair for a
        two-level category."""
        name = ACTION_NAMES_BY_ID[self.action_id]
        if name is ActionName.TITLE_GENERATION:
            return self.answer
        if name is not ActionName.CATEGORIZATION:
            return None
        level1, sep, level2 = self.answer.partition(PAIR_SEPARATOR)
        return CategoryPair(level1, level2) if sep else self.answer


def load_toolstore(path: str | Path) -> ToolStore:
    """Read a knowledge store from its canonical text file."""
    return canonical.load(path, ToolStore)


def load_taxonomy(path: str | Path) -> CategoryTaxonomy:
    return canonical.load(path, CategoryTaxonomy)


def lookup(tools: ToolStore, query: str) -> list[str]:
    """Facts from every entry whose title or text contains the query,
    case-insensitively. Read-only; misses return an empty list."""
    needle = query.lower()
    facts: list[str] = []
    for entry in tools.entries.values():
        if needle in entry.title.lower() or any(needle in f.lower() for f in entry.facts):
            facts.extend(entry.facts)
    return facts


def _context_segments(
    spec: ActionSpec, tools: ToolStore | None, revision: str | None
) -> tuple[ContentItem, ...]:
    """Store facts the instructions request, then any revision feedback."""
    extra: tuple[ContentItem, ...] = ()
    match = _KNOWLEDGE_DIRECTIVE.search(spec.instructions) if tools is not None else None
    query = match.group(1).strip() if match else ""
    facts = lookup(tools, query) if query else []
    if facts:
        extra += (ContentItem.from_text("Relevant known facts:\n" + "\n".join(facts)),)
    if revision:
        extra += (
            ContentItem.from_text(
                f"Revision feedback from a prior attempt:\n{revision}\n"
                "Produce an improved response."
            ),
        )
    return extra


_ANSWER_LINE = (ANSWER_PREFIX, f"Respond with a final line of the form {ANSWER_PREFIX} <answer>.")

# Each action's answer-line prefix and the directive that closes its prompt;
# categorization fills in the labels offered at that stage.
_ACTIONS: dict[ActionName, tuple[str, str]] = {
    ActionName.QA: _ANSWER_LINE,
    ActionName.VQA: _ANSWER_LINE,
    ActionName.TITLE_GENERATION: (
        TITLE_PREFIX,
        f"Respond with a final line of the form {TITLE_PREFIX} <title>.",
    ),
    ActionName.CATEGORIZATION: (
        CATEGORY_PREFIX,
        f"Respond with a final line of the form {CATEGORY_PREFIX} <category>, "
        "choosing exactly one of: {labels}.",
    ),
}


def _extract_line(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.upper().startswith(prefix):
            return stripped[len(prefix) :].strip()
    return None


def _ask(
    spec: ActionSpec,
    reasoned: PromptArtifact,
    provider: Provider,
    extra: tuple[ContentItem, ...],
    transcript: Transcript,
    labels: tuple[str, ...] = (),
) -> tuple[str, str | None]:
    """One actor call; returns the response text and its answer line, if any.
    The reasoned prompt already holds the action's instructions and the
    task's inputs, so the request adds only ``extra`` and the closing
    directive."""
    prefix, directive = _ACTIONS[spec.name]
    closing = ContentItem.from_text(directive.format(labels=", ".join(labels)))
    segments = reasoned.segments + extra + (closing,)
    text = invoke(
        provider, UnitRole.ACTOR, "act", reasoned.system_role, segments, transcript=transcript
    )
    return text, _extract_line(text, prefix)


def _classify(
    spec: ActionSpec,
    reasoned: PromptArtifact,
    provider: Provider,
    extra: tuple[ContentItem, ...],
    transcript: Transcript,
    labels: tuple[str, ...],
) -> str:
    text, label = _ask(spec, reasoned, provider, extra, transcript, labels)
    if label is None:
        raise ActionParseError(f"no {CATEGORY_PREFIX} line in output: {text[:80]!r}")
    return label


def act(
    spec: ActionSpec,
    reasoned: PromptArtifact,
    tools: ToolStore | None,
    provider: Provider,
    *,
    taxonomy: CategoryTaxonomy | None = None,
    revision: str | None = None,
    transcript: Transcript,
) -> ActionResult:
    """Execute one action on its reasoned prompt, which holds the action's
    instructions and the task's inputs (``engine.create_action_prompt``): add
    any store facts, revision feedback and the answer directive, call the
    provider, parse the action-specific answer. Categorization classifies
    into a level-1 category and, against a hierarchical taxonomy, then into
    one of that category's children, so it makes two calls; every other
    action makes exactly one."""
    extra = _context_segments(spec, tools, revision)
    if spec.name is not ActionName.CATEGORIZATION:
        text, answer = _ask(spec, reasoned, provider, extra, transcript)
        if answer is None:
            answer = text.strip()  # prose fallback; QA-style metrics tolerate it
        return ActionResult(action_id=spec.action_id, answer=answer)
    if taxonomy is None:
        raise InvariantError("categorization requires a taxonomy")
    level1 = _classify(spec, reasoned, provider, extra, transcript, taxonomy.level1)
    if level1 not in taxonomy.level1:
        raise ActionParseError(f"unknown category {level1!r}")
    if not taxonomy.is_hierarchical():
        return ActionResult(action_id=spec.action_id, answer=level1)
    children = taxonomy.children(level1)
    if not children:
        raise ActionParseError(f"category {level1!r} has no second-level children")
    level2 = _classify(spec, reasoned, provider, extra, transcript, children)
    if level2 not in children:
        raise ActionParseError(f"{level2!r} is not a child of {level1}")
    return ActionResult(action_id=spec.action_id, answer=f"{level1}{PAIR_SEPARATOR}{level2}")
