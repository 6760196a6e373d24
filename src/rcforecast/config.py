"""JSON config files: one loader, and the exact-type check each config runs."""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

# what each annotated field type takes, exactly: a bool is not an int, an int
# is a float, and numeric strings are not numbers
_TYPES = {
    "int": ("an int", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "int | None": ("an int or null", lambda v: v is None or type(v) is int),
    "bool": ("a bool", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str),
    "list[int]": ("a list of ints", lambda v: type(v) is list
                  and all(type(x) is int for x in v)),
    "dict": ("an object of numbers", lambda v: type(v) is dict
             and all(type(x) in (int, float) for x in v.values())),
}


def check_types(config, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` for the first field of the dataclass ``config`` whose
    value does not have its annotated type."""
    for f in fields(config):
        kind, ok = _TYPES[f.type]
        if not ok(getattr(config, f.name)):
            raise error(f"{f.name} must be {kind}, not {getattr(config, f.name)!r}")


def load_config(cls, path, error: type[Exception] = ValueError):
    """The dataclass ``cls`` from a JSON file; ``error`` for a non-object or for
    unknown or missing keys. ``cls`` checks the value types."""
    with open(path) as fh:
        obj = json.load(fh)
    if type(obj) is not dict:
        raise error(f"config {path} must hold a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(known))
    missing = sorted(name for name, f in known.items() if name not in obj
                     and f.default is MISSING and f.default_factory is MISSING)
    if unknown or missing:
        raise error(f"{'unknown' if unknown else 'missing'} config keys: "
                    f"{', '.join(unknown or missing)}")
    return cls(**obj)
