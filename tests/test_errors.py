"""Every package error survives a pickle round trip, so it crosses a process
boundary (a process pool, a multiprocessing queue) with its type, message
and attributes intact."""

from __future__ import annotations

import pickle

import pytest

from socialagent import errors

# the arguments past the message that each error's constructor takes
_EXTRA = {
    errors.MalformedInputError: {"position": 3},
    errors.DatasetFormatError: {"line": 2},
}

_ERRORS = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.AgentError)
]


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    error = cls("went wrong", **_EXTRA.get(cls, {}))
    loaded = pickle.loads(pickle.dumps(error))
    assert type(loaded) is cls
    assert str(loaded) == str(error)
    assert vars(loaded) == vars(error)
