"""Exception hierarchy shared by all agent modules.

A class exists only where a caller, the CLI or the bench tells it apart
from its base; any other fault raises its base with a message that says
what went wrong."""

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


class PlanParseError(AgentError):
    """Planner output lacked a usable plan block."""


class CritiqueParseError(AgentError):
    """Critic output lacked the mandatory verdict line."""


class ActionParseError(AgentError):
    """Actor output could not be parsed for a structured action."""


class ConfigError(AgentError):
    """Engine or CLI configuration is unusable."""


class TaskFailure(AgentError):
    """The CLI's task fault: ``solve`` raises it for a failed run, ``eval``
    for one that scores no record. ``engine.solve`` never raises it: it
    returns every run fault in its ``TaskResponse``."""
