"""Exception hierarchy shared by all agent modules."""

from __future__ import annotations


class AgentError(Exception):
    """Base class for every error raised by this package."""

    def __str__(self) -> str:
        """The message, or the class name if the message is empty."""
        return super().__str__() or type(self).__name__


class InvariantError(AgentError):
    """A domain value violates one of its declared invariants."""


class MalformedInputError(AgentError):
    """Input could not be read as the value it should hold: canonical text,
    or a dataset record, whose message then starts ``line <n>: ``."""


class ProviderError(AgentError):
    """Base class for model-backend failures."""


class TransportError(ProviderError):
    """Network-level failure; the message names the number of attempts made."""


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
    """Planner output lacked a usable plan block."""


class CritiqueParseError(AgentError):
    """Critic output lacked the mandatory verdict line."""


class NotActionableError(AgentError):
    """refine() called on a critique without actionable feedback."""


class ActionParseError(AgentError):
    """Actor output could not be parsed for a structured action."""


class ConfigError(AgentError):
    """Engine or CLI configuration is unusable."""


class BindingCollisionError(ConfigError):
    """The role-writer shares a model with another unit."""


class TaskFailure(AgentError):
    """The CLI's task fault: ``solve`` raises it for a failed run, ``eval``
    for one that scores no record. ``engine.solve`` never raises it: it
    returns every run fault in its ``TaskResponse``."""
