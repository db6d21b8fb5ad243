"""Declared scenario fields and the one checker that enforces them.

A field is declared once, on the dataclass that carries it. Its annotation
gives the JSON type (``int``, ``float``, ``bool``, ``str``, each optionally
``| None``) and ``param`` gives its default and bound:

    n_channels: int = param(3, ge=1)

``check(obj)`` runs from ``__post_init__``, so objects built by the scenario
parser and by library code obey the same rules: a bool is never a number; an
int field takes only an int; a float field takes an int or a float, stores it
as ``float`` and requires it finite; a kind string must be one of its
``choices``. Fields of any other type are left to their builder. Failures
raise ``ConfigurationError("<field>: <problem>")``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields

from .errors import ConfigurationError

_BOUNDS = (("gt", operator.gt, ">"), ("ge", operator.ge, ">="), ("le", operator.le, "<="))
_TYPES = {"int": ("an integer", int), "float": ("a number", (int, float)),
          "bool": ("a boolean", bool), "str": ("a string", str)}


def param(default=MISSING, *, gt=None, ge=None, le=None, choices=None):
    """A dataclass field with its bounds and allowed kinds as metadata."""
    rules = {"gt": gt, "ge": ge, "le": le, "choices": choices}
    return field(default=default,
                 metadata={k: v for k, v in rules.items() if v is not None})


def invalid(name: str, problem: str) -> ConfigurationError:
    return ConfigurationError(f"{name}: {problem}")


def _typed(name: str, base: str, value):
    """The value as the field stores it, or raise if its type is wrong."""
    what, typ = _TYPES[base]
    if not isinstance(value, typ) or (isinstance(value, bool) and base != "bool"):
        raise invalid(name, f"must be {what}, got {value!r}")
    if base != "float":
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise invalid(name, f"must be finite, got {value!r}")
    return value


def check(obj) -> None:
    """Enforce the declared type, kinds and bounds of every scalar field."""
    for f in fields(obj):
        base, _, optional = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if base not in _TYPES or (value is None and optional == "None"):
            continue
        typed = _typed(f.name, base, value)
        if typed is not value:
            object.__setattr__(obj, f.name, typed)
        choices = f.metadata.get("choices")
        if choices is not None and typed not in choices:
            raise invalid(f.name, f"must be one of {list(choices)}, got {typed!r}")
        for key, holds, sign in _BOUNDS:
            if key in f.metadata and not holds(typed, f.metadata[key]):
                raise invalid(f.name, f"must be {sign} {f.metadata[key]}, got {typed!r}")
