"""Declared fields, the one checker that enforces them, and the one JSON
codec that reads and writes them (``to_json``/``from_json``).

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

import functools
import math
import operator
import re
import typing
from dataclasses import MISSING, field, fields, is_dataclass

from .errors import ConfigurationError

_BOUNDS = (("gt", operator.gt, ">"), ("ge", operator.ge, ">="), ("le", operator.le, "<="))
_PAIR_KEY = re.compile(r"(\d+)->(\d+)", re.ASCII)
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
    except OverflowError:
        raise invalid(name, f"must fit a float, got an integer of "
                            f"{value.bit_length()} bits") from None
    if not math.isfinite(value):
        raise invalid(name, f"must be finite, got {value!r}")
    return value


@functools.cache
def _rules(cls) -> tuple:
    """Per field of a dataclass that ``check`` enforces, in declared order:
    (name, JSON type, nullable, choices, bounds as (limit, holds, sign))."""
    rules = []
    for f in fields(cls):
        base, _, optional = f.type.partition(" | ")
        if base in _TYPES:
            bounds = tuple((f.metadata[key], holds, sign)
                           for key, holds, sign in _BOUNDS if key in f.metadata)
            rules.append((f.name, base, optional == "None", f.metadata.get("choices"), bounds))
    return tuple(rules)


def check(obj) -> None:
    """Enforce the declared type, kinds and bounds of every scalar field."""
    for name, base, nullable, choices, bounds in _rules(type(obj)):
        value = getattr(obj, name)
        if value is None and nullable:
            continue
        typed = _typed(name, base, value)
        if typed is not value:
            object.__setattr__(obj, name, typed)
        if choices is not None and typed not in choices:
            raise invalid(name, f"must be one of {list(choices)}, got {typed!r}")
        for limit, holds, sign in bounds:
            if not holds(typed, limit):
                raise invalid(name, f"must be {sign} {limit}, got {typed!r}")


def pair_key(pair: tuple[int, int]) -> str:
    """A flow pair as a JSON object key: "src->dst"."""
    return f"{pair[0]}->{pair[1]}"


def parse_pair_key(key, where: str) -> tuple[int, int]:
    match = _PAIR_KEY.fullmatch(str(key))
    if match is None:
        raise invalid(where, f"{key!r} is not a \"src->dst\" key")
    return (int(match[1]), int(match[2]))


def _shaped(doc, typ: type, where: str):
    if not isinstance(doc, typ):
        raise invalid(where, f"must be {'an object' if typ is dict else 'a list'}, got {doc!r}")
    return doc


def known_keys(doc, allowed, where: str) -> dict:
    """doc, if it is an object whose keys are all allowed."""
    unknown = set(_shaped(doc, dict, where)) - set(allowed)
    if unknown:
        raise invalid(where, f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    return doc


@functools.cache
def _fields(cls) -> dict:
    """Per field of a dataclass, in declared order: (type, required)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def to_json(obj):
    """obj as JSON: a dataclass is an object of its fields in declared order;
    a dict keyed by (src, dst) pairs is an object keyed "src->dst", and a
    frozenset of pairs a list of such keys, both sorted by pair; a tuple is
    a list."""
    if obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        # most tuples are link ids or floats: copy them whole (a bool is not
        # a plain int)
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {float}:
            return list(obj)
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {pair_key(k): to_json(v) for k, v in sorted(obj.items())}
    if isinstance(obj, frozenset):
        return [pair_key(p) for p in sorted(obj)]
    return {name: to_json(getattr(obj, name)) for name in _fields(type(obj))}


def _at(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def from_json(tp, doc, where: str):
    """The value of type tp that ``to_json`` writes as doc. An unknown key, a
    missing required field, a non-object or non-list value and a failed
    ``__post_init__`` raise ConfigurationError naming the place, such as
    ``bundle.scenario.traffic.flows[0].dst``. At a document's root, where is
    "": a field's place is its name (``traffic.flows[0].dst``). An int or
    float is typed here, so each element of a tuple or dict is checked too
    (``bundle.assignment.channel_of[2]``); other scalars are left to
    ``check``."""
    # Most values are link ids and floats; testing for them first makes a
    # large bundle decode about three times faster.
    if tp is int or tp is float:
        return _typed(where, tp.__name__, doc)
    if is_dataclass(tp):
        declared = _fields(tp)
        doc = known_keys(doc, declared, where)
        values = {}
        for name, (ftp, required) in declared.items():
            if name in doc:
                values[name] = from_json(ftp, doc[name], _at(where, name))
            elif required:
                raise invalid(_at(where, name), "required")
        try:
            return tp(**values)
        except ValueError as e:
            raise ConfigurationError(_at(where, str(e))) from e
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {parse_pair_key(k, where): from_json(args[1], v, f"{where}.{k}")
                for k, v in _shaped(doc, dict, where).items()}
    if origin is frozenset:
        return frozenset(parse_pair_key(k, where) for k in _shaped(doc, list, where))
    if origin is tuple:
        return tuple(from_json(args[0], v, f"{where}[{i}]")
                     for i, v in enumerate(_shaped(doc, list, where)))
    return doc
