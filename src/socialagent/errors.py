"""Exception hierarchy shared by all agent modules."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import Transcript


class AgentError(Exception):
    """Base class for every error raised by this package."""


class InvariantError(AgentError):
    """A domain value violates one of its declared invariants."""


class MalformedInputError(AgentError):
    """Canonical text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ProviderError(AgentError):
    """Base class for model-backend failures."""


class TransportError(ProviderError):
    """Network-level failure, surfaced with the number of attempts made."""

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(f"{message} (after {attempts} attempt(s))")
        self.attempts = attempts


class AuthenticationError(ProviderError):
    """The backend rejected the credentials (a 401 or 403 reply)."""


class ImageUnsupportedError(ProviderError):
    """Image content sent to a backend configured as text-only."""


class EmptyTextError(ProviderError):
    """Embedding requested for empty text."""


class MockScriptExhaustedError(ProviderError):
    """A scripted mock ran out of queued responses."""


class MockScriptMismatchError(ProviderError):
    """A scripted response's matcher did not occur in the request."""


class PlanParseError(AgentError):
    """Planner output lacked a usable plan block; carries the raw output."""

    def __init__(self, message: str, raw: str = "") -> None:
        super().__init__(message)
        self.raw = raw


class CritiqueParseError(AgentError):
    """Critic output lacked the mandatory verdict line."""

    def __init__(self, message: str, raw: str = "") -> None:
        super().__init__(message)
        self.raw = raw


class NotActionableError(AgentError):
    """refine() called on a critique without actionable feedback."""


class ActionParseError(AgentError):
    """Actor output could not be parsed for a structured action."""


class ConfigError(AgentError):
    """Engine or CLI configuration is unusable."""


class BindingCollisionError(ConfigError):
    """The role-writer shares a model with another unit."""


class TaskFailure(AgentError):
    """A task run aborted; carries the transcript recorded so far."""

    def __init__(self, message: str, transcript: Transcript) -> None:
        super().__init__(message)
        self.transcript = transcript


class DatasetFormatError(AgentError):
    """A dataset file failed to load; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
