"""Every package error is built from its message alone and survives a pickle
round trip, so it crosses a process boundary (a process pool, a
multiprocessing queue) with its type and message intact."""

from __future__ import annotations

import pickle

import pytest

from socialagent import errors

_ERRORS = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.AgentError)
]


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    error = cls("went wrong")
    assert vars(error) == {}
    loaded = pickle.loads(pickle.dumps(error))
    assert type(loaded) is cls
    assert str(loaded) == str(error)
    assert vars(loaded) == vars(error)


def test_each_error_class_is_told_apart_from_its_base():
    # a class exists only where a caller, the CLI or the bench tells it apart;
    # any other fault raises its base with its own message
    assert sorted(cls.__name__ for cls in _ERRORS) == [
        "ActionParseError",
        "AgentError",
        "AuthenticationError",
        "ConfigError",
        "CritiqueParseError",
        "InvariantError",
        "MalformedInputError",
        "PlanParseError",
        "ProviderError",
        "TaskFailure",
        "TransportError",
    ]
