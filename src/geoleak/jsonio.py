"""Strict JSON codec for the package's frozen dataclasses, driven by their
fields and type hints.

`to_json` turns a value into plain JSON data: a dataclass becomes an object
with one key per field, an enum its value, a tuple an array. `from_json`
builds a value of a given type back from such data and accepts nothing the
type does not describe: an unknown key, a missing required key or a value of
the wrong JSON type raises ValueError naming its path (``$.attack.epsilon_m``).
A key left out takes the field's default, so each default is stated once, on
the dataclass. A boolean is not a number and a string is not an integer; an
integer is accepted where a float is expected.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing

_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}
_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}


def to_json(value):
    """Plain JSON data for ``value``: objects, arrays, numbers, strings, null."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def _kind(obj) -> str:
    return _KINDS.get(type(obj), type(obj).__name__)


def from_json(tp, obj, path: str = "$"):
    """Build a value of type ``tp`` from JSON data ``obj``; ``path`` names
    where ``obj`` sits in the document, for error messages."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if obj is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return from_json(inner, obj, path)
    if origin is tuple and args[1:] == (Ellipsis,):  # tuple[X, ...]; other tuples reach the TypeError below
        if not isinstance(obj, list):
            raise ValueError(f"{path}: expected array, got {_kind(obj)}")
        return tuple(from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(obj))
    if dataclasses.is_dataclass(tp):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: expected object, got {_kind(obj)}")
        fields = {f.name: f for f in dataclasses.fields(tp)}
        for key in obj:
            if key not in fields:
                raise ValueError(f"{path}: unknown key {key!r}")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for name, f in fields.items():
            if name in obj:
                kwargs[name] = from_json(hints[name], obj[name], f"{path}.{name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{path}: missing key {name!r}")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(obj)
        except ValueError:
            raise ValueError(f"{path}: expected one of {[m.value for m in tp]}, got {obj!r}") from None
    if tp not in _JSON_TYPE_NAMES:
        raise TypeError(f"{path}: no JSON decoding for type {tp!r}")
    if tp is float and _kind(obj) == "number":
        try:
            return float(obj)
        except OverflowError:
            raise ValueError(f"{path}: number too large for a float") from None
    if type(obj) is not tp:
        raise ValueError(f"{path}: expected {_JSON_TYPE_NAMES[tp]}, got {_kind(obj)}")
    return obj
