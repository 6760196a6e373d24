"""JSON input files and float flags: one exact-type rule for every value. A
bool is not an int, an int is a number, numeric strings are not numbers, and a
number's float value is finite (NaN, Infinity and 10**400 are not numbers).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields

_FLOAT_RANGE = 2**1024 - 2**970   # the least int whose float() overflows


def _is_number(v) -> bool:
    # an int is compared, not converted: float(10**400) raises OverflowError
    return type(v) is int and abs(v) < _FLOAT_RANGE or type(v) is float and math.isfinite(v)


_TYPES = {
    "int": ("an int", lambda v: type(v) is int),
    "float": ("a number", _is_number),
    "int | None": ("an int or null", lambda v: v is None or type(v) is int),
    "bool": ("a bool", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str),
    "list[int]": ("a list of ints", lambda v: type(v) is list and set(map(type, v)) <= {int}),
    "list[float]": ("a list of numbers", lambda v: type(v) is list and all(map(_is_number, v))),
    "list[str]": ("a list of strings", lambda v: type(v) is list and set(map(type, v)) <= {str}),
    "dict": ("an object", lambda v: type(v) is dict),
    "dict[str, float]": ("an object of numbers",
                         lambda v: type(v) is dict and all(map(_is_number, v.values()))),
}


def has_type(kind: str, value) -> bool:
    """Whether ``value`` is of ``kind``, a key of ``_TYPES``."""
    return _TYPES[kind][1](value)


def check_types(config, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` for the first field of the dataclass ``config`` whose
    value is not of its annotated kind."""
    for f in fields(config):
        if not has_type(f.type, getattr(config, f.name)):
            raise error(f"{f.name} must be {_TYPES[f.type][0]}, not {getattr(config, f.name)!r}")


def load_object(path, what: str, error: type[Exception] = ValueError) -> dict:
    """The JSON object in the file ``path``; ``error`` naming ``what`` for another value."""
    with open(path) as fh:
        obj = json.load(fh)
    if type(obj) is not dict:
        raise error(f"{what} {path} must hold a JSON object")
    return obj


def load_config(cls, path, error: type[Exception] = ValueError):
    """The dataclass ``cls`` from a JSON file; ``error`` for a non-object or for
    unknown or missing keys. ``cls`` checks the value types."""
    obj = load_object(path, "config", error)
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(known))
    missing = sorted(name for name, f in known.items() if name not in obj
                     and f.default is MISSING and f.default_factory is MISSING)
    if unknown or missing:
        raise error(f"{'unknown' if unknown else 'missing'} config keys: "
                    f"{', '.join(unknown or missing)}")
    return cls(**obj)
