"""Domain types shared by every unit: tasks, plans, prompts, configuration,
and the per-run invocation transcript."""

from __future__ import annotations

import importlib
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from .errors import InvariantError

if TYPE_CHECKING:
    from .providers import ProviderConfig

log = logging.getLogger(__name__)


def _sha256_constructor():
    """CPython's own C SHA-256 (_sha2 on 3.12+, _sha256 before), else hashlib's.

    hashlib loads OpenSSL's libcrypto (~3.7 MB resident), which a run with
    mock backends needs for nothing else. The built-in modules are private,
    and other interpreters may implement them in slow pure Python."""
    if sys.implementation.name == "cpython":
        for name in ("_sha2", "_sha256"):
            try:
                return importlib.import_module(name).sha256
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256


sha256 = _sha256_constructor()


class ContentKind(Enum):
    TEXT = "text"
    IMAGE_REF = "image_ref"


@dataclass(frozen=True)
class ImageRef:
    """Reference to image content (path or URL); bytes are inlined only at
    the provider wire boundary, never carried in domain values."""

    location: str
    media_type: str

    def __post_init__(self) -> None:
        if not self.location:
            raise InvariantError("ImageRef.location must be non-empty")
        if not self.media_type:
            raise InvariantError("ImageRef.media_type must be non-empty")


@dataclass(frozen=True)
class ContentItem:
    """One multimodal input: exactly one of text or image, matching kind."""

    kind: ContentKind
    text: str | None = None
    image: ImageRef | None = None

    def __post_init__(self) -> None:
        if self.kind is ContentKind.TEXT:
            if self.text is None or self.image is not None:
                raise InvariantError("text item must carry text and no image")
        else:
            if self.image is None or self.text is not None:
                raise InvariantError("image item must carry an image and no text")

    @classmethod
    def from_text(cls, text: str) -> ContentItem:
        return cls(kind=ContentKind.TEXT, text=text)

    @classmethod
    def from_image(cls, location: str, media_type: str) -> ContentItem:
        return cls(kind=ContentKind.IMAGE_REF, image=ImageRef(location, media_type))


class ActionName(Enum):
    QA = "qa"
    VQA = "vqa"
    TITLE_GENERATION = "title_generation"
    CATEGORIZATION = "categorization"


ACTION_NAMES_BY_ID: dict[int, ActionName] = {
    1: ActionName.QA,
    2: ActionName.VQA,
    3: ActionName.TITLE_GENERATION,
    4: ActionName.CATEGORIZATION,
}


@dataclass(frozen=True)
class Task:
    """A goal to solve, with the multimodal inputs it refers to and an
    optional restriction on which actions a plan may use."""

    id: str
    goal: str
    inputs: tuple[ContentItem, ...] = ()
    allowed_actions: frozenset[int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.allowed_actions is not None:
            object.__setattr__(self, "allowed_actions", frozenset(self.allowed_actions))
        problems = []
        if not self.goal.strip():
            problems.append("empty goal")
        if self.allowed_actions is not None:
            bad = sorted(self.allowed_actions - set(ACTION_NAMES_BY_ID))
            if bad:
                problems.append(f"unknown action id(s): {bad}")
            if not self.allowed_actions:
                problems.append("allowed_actions is empty")
        if problems:
            raise InvariantError("; ".join(problems))

    def permitted_actions(self) -> frozenset[int]:
        if self.allowed_actions is None:
            return frozenset(ACTION_NAMES_BY_ID)
        return self.allowed_actions


@dataclass(frozen=True)
class EnvironmentContext:
    """No run reads it; kept, field-less, because bench/ builds it for solve."""


@dataclass(frozen=True)
class ActionSpec:
    """One executable action: its id and instructions. It acts on its task's
    inputs, which it does not copy."""

    action_id: int
    instructions: str

    def __post_init__(self) -> None:
        if self.action_id not in ACTION_NAMES_BY_ID:
            raise InvariantError(f"unknown action id {self.action_id}")
        if not self.instructions.strip():
            raise InvariantError("action instructions must be non-empty")

    @property
    def name(self) -> ActionName:
        return ACTION_NAMES_BY_ID[self.action_id]


@dataclass(frozen=True)
class Plan:
    """An ordered action sequence plus the planner's verbatim output."""

    actions: tuple[ActionSpec, ...]
    rationale: str = ""
    raw: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise InvariantError("plan must contain at least one action")


class StrategyKind(Enum):
    NONE = "none"
    FEW_SHOT = "few_shot"
    ZERO_SHOT_COT = "zero_shot_cot"
    SELF_REFLECTION = "self_reflection"
    COT_AND_REFLECTION = "cot_and_reflection"


@dataclass(frozen=True)
class ReasoningStrategy:
    """Which prompting technique the reasoner applies; few-shot carries its
    demonstration pairs."""

    kind: StrategyKind = StrategyKind.NONE
    examples: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "examples", tuple((str(a), str(b)) for a, b in self.examples)
        )
        if self.kind is StrategyKind.FEW_SHOT and not self.examples:
            raise InvariantError("few-shot strategy requires at least one example")
        if self.kind is not StrategyKind.FEW_SHOT and self.examples:
            raise InvariantError(f"{self.kind.value} strategy carries no examples")

    @classmethod
    def zero_shot_cot(cls) -> ReasoningStrategy:
        return cls(StrategyKind.ZERO_SHOT_COT)

    @classmethod
    def cot_and_reflection(cls) -> ReasoningStrategy:
        return cls(StrategyKind.COT_AND_REFLECTION)


@dataclass(frozen=True)
class PromptArtifact:
    """A composite prompt: system role and ordered segments."""

    system_role: str
    segments: tuple[ContentItem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise InvariantError("prompt must contain at least one segment")

    def with_segments(self, *items: ContentItem) -> PromptArtifact:
        """Copy with extra segments appended (strategy material is additive)."""
        return replace(self, segments=self.segments + tuple(items))

    def text_segments(self) -> tuple[str, ...]:
        return tuple(s.text for s in self.segments if s.kind is ContentKind.TEXT)


class UnitRole(Enum):
    ROLE_WRITER = "role_writer"
    REASONER = "reasoner"
    PLANNER = "planner"
    OPTIMIZER = "optimizer"
    CRITIC = "critic"
    REFINER = "refiner"
    ACTOR = "actor"


@dataclass(frozen=True)
class SamplingConfig:
    """Decoding parameters: temperature plus nucleus cutoff (default 0.99)."""

    temperature: float = 0.0
    top_p: float = 0.99

    def __post_init__(self) -> None:
        if not (0 <= self.temperature < math.inf):
            raise InvariantError("temperature must be finite and >= 0")
        if not (0 < self.top_p <= 1):
            raise InvariantError("top_p must be in (0, 1]")

    @classmethod
    def creative(cls) -> SamplingConfig:
        return cls(temperature=0.7, top_p=0.99)


DEFAULT_EARLY_STOP_MARKER = "NO_FURTHER_IMPROVEMENT"


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one engine run: gate threshold, trial budget, optimizer
    iteration count, the per-unit provider bindings, and the reasoning
    strategy applied at both reasoning sites."""

    role_bindings: dict[UnitRole, ProviderConfig] = field(default_factory=dict)
    theta: float = 0.1
    trials: int = 2
    tgd_iterations: int = 1
    strategy: ReasoningStrategy = field(default_factory=ReasoningStrategy.cot_and_reflection)

    def __post_init__(self) -> None:
        if not (0 <= self.theta <= 1):
            raise InvariantError("theta must be in [0, 1]")
        if self.trials < 1:
            raise InvariantError("trials must be >= 1")
        if self.tgd_iterations < 1:
            raise InvariantError("tgd_iterations must be >= 1")


def digest(text: str) -> str:
    """Short stable content digest used in transcripts and reports."""
    return sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class TranscriptEvent:
    unit: UnitRole
    operation: str
    request_digest: str
    response_digest: str

    def label(self) -> tuple[str, str]:
        return (self.unit.value, self.operation)


@dataclass
class Transcript:
    """Append-only record of unit invocations for one task run.

    An event's position is plan order: the order in which a sequential run
    would make the calls. The engine records all of a plan action's events
    into a transcript of its own and ``absorb``s it when the action ends or
    fails, so action i+1's reasoning may run on a worker while action i
    runs, and the merged events, and every report built from them, are the
    same as a sequential run's."""

    events: tuple[TranscriptEvent, ...] = ()

    def __post_init__(self) -> None:
        self.events = tuple(self.events)

    def record(
        self, unit: UnitRole, operation: str, request_text: str, response_text: str
    ) -> TranscriptEvent:
        """Append one event and log it: its digests at INFO, the full
        request and response bodies only at DEBUG."""
        event = TranscriptEvent(unit, operation, digest(request_text), digest(response_text))
        self.events += (event,)
        log.info(
            "%s request=%s response=%s", operation, event.request_digest, event.response_digest
        )
        log.debug(
            "%s request body:\n%s\nresponse body:\n%s", operation, request_text, response_text
        )
        return event

    def absorb(self, other: Transcript) -> None:
        """Append ``other``'s events after this transcript's own."""
        self.events += other.events

    def report(self) -> list[dict]:
        """The events as run reports carry them; ``seq`` is the position."""
        return [
            {
                "seq": seq,
                "unit": e.unit.value,
                "operation": e.operation,
                "request_digest": e.request_digest,
                "response_digest": e.response_digest,
            }
            for seq, e in enumerate(self.events)
        ]

    def signature(self) -> tuple[tuple[str, str], ...]:
        """(unit, operation) labels in invocation order, for conformance checks."""
        return tuple(e.label() for e in self.events)

    def __len__(self) -> int:
        return len(self.events)
