"""Canonical text serialization: sorted-key JSON wrapped in a
self-describing type envelope, byte-stable across runs."""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .errors import ConfigError, InvariantError, MalformedInputError

_T = typing.TypeVar("_T")
_SCALARS = {int: "integer", bool: "boolean", str: "string"}
# files are read, and bytes decoded, as strict UTF-8, which rejects an encoded
# lone surrogate: only an escape can put one in a decoded string
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _exports() -> dict[str, object]:
    return vars(sys.modules[__package__])


def _kind(name: object) -> type | None:
    """The class a ``kind`` names: a dataclass exported from the package."""
    cls = _exports().get(name) if isinstance(name, str) else None
    if isinstance(cls, type) and is_dataclass(cls):
        return cls
    return None


@functools.cache
def _hints(tp: type) -> dict[str, object]:
    """A dataclass's resolved field types, computed once per class; every
    caller shares the returned dict, so it is only read."""
    return typing.get_type_hints(tp, localns=_exports())


def to_jsonable(value: object) -> object:
    """Lower a domain value to plain JSON-compatible data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(item) for item in value)
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            key_repr = key.value if isinstance(key, Enum) else key
            if not isinstance(key_repr, str):
                raise MalformedInputError(f"unsupported dict key type {type(key).__name__}")
            out[key_repr] = to_jsonable(item)
        return out
    raise MalformedInputError(f"cannot serialize value of type {type(value).__name__}")


def from_jsonable(data: object, tp: object, path: str = "$") -> object:
    """Rebuild a domain value of declared type ``tp`` from plain data."""
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is types.UnionType:
        args = typing.get_args(tp)
        if data is None and type(None) in args:
            return None
        last_error: Exception | None = None
        for arm in args:
            if arm is type(None):
                continue
            try:
                return from_jsonable(data, arm, path)
            except (MalformedInputError, ValueError, TypeError) as exc:
                if isinstance(exc.__cause__, InvariantError):
                    raise  # the arm's shape matched: its own check is the fault
                last_error = exc
        raise MalformedInputError(f"{path}: no union arm matched ({last_error})")
    if origin is tuple:
        args = typing.get_args(tp)
        if not isinstance(data, list):
            raise MalformedInputError(f"{path}: expected array")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(
                from_jsonable(item, args[0], f"{path}[{i}]") for i, item in enumerate(data)
            )
        if len(args) != len(data):
            raise MalformedInputError(f"{path}: expected {len(args)} items")
        return tuple(
            from_jsonable(item, arm, f"{path}[{i}]")
            for i, (item, arm) in enumerate(zip(data, args))
        )
    if origin is frozenset:
        (arm,) = typing.get_args(tp)
        if not isinstance(data, list):
            raise MalformedInputError(f"{path}: expected array")
        return frozenset(from_jsonable(item, arm, path) for item in data)
    if origin is dict:
        key_tp, val_tp = typing.get_args(tp)
        if not isinstance(data, dict):
            raise MalformedInputError(f"{path}: expected object")
        out = {}
        for key, item in data.items():
            out[from_jsonable(key, key_tp, f"{path}.{key}")] = from_jsonable(
                item, val_tp, f"{path}.{key}"
            )
        return out
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(data)
        except ValueError as exc:
            raise MalformedInputError(f"{path}: {exc}") from exc
    if is_dataclass(tp):
        if not isinstance(data, dict):
            raise MalformedInputError(f"{path}: expected object for {tp.__name__}")
        hints = _hints(tp)
        known = {f.name: f for f in fields(tp)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise MalformedInputError(f"{path}: unknown fields {unknown} for {tp.__name__}")
        kwargs = {}
        for name, f in known.items():
            if name in data:
                kwargs[name] = from_jsonable(data[name], hints[name], f"{path}.{name}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise MalformedInputError(f"{path}: missing field {name!r} for {tp.__name__}")
        try:
            return tp(**kwargs)
        except InvariantError as exc:
            raise MalformedInputError(f"{path}: {exc}") from exc
    if tp is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise MalformedInputError(f"{path}: expected number")
        try:
            value = float(data)
        except OverflowError:
            raise MalformedInputError(
                f"{path}: integer {len(str(abs(data)))} digits long is beyond the float range"
            ) from None
        if not math.isfinite(value):
            raise MalformedInputError(f"{path}: expected a finite number, got {value}")
        return value
    if tp in _SCALARS:
        # bool is an int subclass: only a bool is a boolean, and no bool an integer
        if isinstance(data, bool) is not (tp is bool) or not isinstance(data, tp):
            raise MalformedInputError(f"{path}: expected {_SCALARS[tp]}")
        return data
    raise MalformedInputError(f"{path}: unsupported declared type {tp!r}")


def dumps(data: object) -> str:
    """Canonical rendering of plain data: sorted keys, stable floats."""
    return (
        json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
        + "\n"
    )


def serialize(value: object) -> str:
    """Render a value of any kind as canonical text."""
    name = type(value).__name__
    if _kind(name) is not type(value):
        raise MalformedInputError(f"type {name} is not a serializable kind")
    return dumps({"kind": name, "value": to_jsonable(value)})


def _lone_surrogate(data: object) -> str | None:
    """A lone surrogate in any string of parsed JSON (``json.loads`` joins
    an escaped pair into one character), or None."""
    pending = [data]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending += [*item, *item.values()]
        elif isinstance(item, list):
            pending += item
        elif isinstance(item, str) and (found := _SURROGATE.search(item)):
            return found.group()
    return None


def parse_text(text: str | bytes, what: str) -> object:
    """The one reader of untrusted JSON (``bytes`` are decoded strictly, in
    the encoding ``json.loads`` detects): plain data, or a MalformedInputError
    naming ``what`` and the cause. A string holding a lone surrogate, which
    no text can encode, is malformed too."""
    try:
        if isinstance(text, bytes):
            text = text.decode(json.detect_encoding(text))
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"malformed {what} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"malformed {what}: {exc}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise MalformedInputError(
            f"malformed {what}: an integer literal is too long to read"
        ) from exc
    except RecursionError as exc:
        raise MalformedInputError(f"malformed {what}: nested too deeply to read") from exc
    lone = _lone_surrogate(data) if _SURROGATE_ESCAPE.search(text) else None
    if lone is not None:
        raise MalformedInputError(
            f"malformed {what}: a string holds the lone surrogate U+{ord(lone):04X}"
        )
    return data


def deserialize(text: str) -> object:
    """Rebuild a domain value from canonical text produced by serialize()."""
    data = parse_text(text, "canonical text")
    if not isinstance(data, dict) or set(data) != {"kind", "value"}:
        raise MalformedInputError("expected an object with 'kind' and 'value'")
    kind = data["kind"]
    cls = _kind(kind)
    if cls is None:
        raise MalformedInputError(f"unknown kind {kind!r}")
    return from_jsonable(data["value"], cls, path=str(kind))


def read_text(path: str | Path) -> str:
    """Read a UTF-8 input file. One that cannot be read is a ConfigError
    giving only the cause; the caller names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(exc.strerror) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text (byte {exc.start})") from exc


def load(path: str | Path, kind: type[_T] = object) -> _T:
    """Rebuild the domain value stored in a canonical text file, which must
    be a ``kind``; the caller names the file in any error."""
    value = deserialize(read_text(path))
    if not isinstance(value, kind):
        raise MalformedInputError(f"does not contain a {kind.__name__}")
    return value
