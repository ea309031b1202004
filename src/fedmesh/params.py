"""The frozen, validated wrapper a model wears where it leaves its tier.

Every model in the simulator is a plain 1-D float64 array of a fixed
dimension P, and a stack of models is an (n, P) array. ParamVector wraps one
such array where it crosses from one tier to the next: the update a client
encrypts for its edge (secagg.encrypt_update) and an edge's model on its way
to the exchange (aggregation.EdgeUpdate). Construction copies the array,
refuses anything but a nonempty, finite 1-D vector and freezes it, so NaN/Inf
can never cross those boundaries.

check_field_types is the type rule every config section applies first, so
constructors and dataclasses.replace refuse what a config file refuses. It
coerces nothing: a bool is only a bool; an int is a Python int, not a bool or
a numpy integer (which would hash to another seed); a float is an int or a
float (np.float64 too) within the float range, not NaN or +-inf; a union
admits any member's values; a tuple or mapping is checked entry by entry, and
a refusal names the path, such as edge_failures[0][0]. The one conversion: a
value in a float position is stored as a Python float, so 1 and 1.0
configure the same run.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import types
import typing
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Immutable 1-D float64 vector of model parameters."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"ParamVector requires a nonempty 1-D vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("ParamVector entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"ParamVector(dim={self.dim})"


class FieldTypeError(ValueError):
    """A config field holds a value that is not of its declared type; the
    message starts with the field's path, such as `edge_failures[0][0]`."""


def _is(value: Any, kind: Any) -> bool:
    """`value` is a `kind` without coercion (see the module docstring)."""
    if isinstance(kind, types.UnionType):
        return any(_is(value, member) for member in typing.get_args(kind))
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, typing.get_origin(kind) or kind)


def _check(value: Any, kind: Any, path: str) -> Any:
    """Return `value`, found at `path`, as its field stores it (a number in a
    float position as a float); raise FieldTypeError unless it is a `kind`."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple and isinstance(value, tuple):
        kinds = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(kinds):
            raise FieldTypeError(f"{path}: expected {len(kinds)} entries, got {len(value)}")
        return tuple(_check(entry, kinds[i], f"{path}[{i}]") for i, entry in enumerate(value))
    if origin is collections.abc.Mapping and isinstance(value, origin):
        stored = {}
        for key, entry in value.items():
            if not _is(key, args[0]):  # the one mapping, security_overrides, is keyed by client id
                raise FieldTypeError(f"{path}[{key!r}]: client id must be an integer")
            stored[key] = _check(entry, args[1], f"{path}[{key!r}]")
        return stored
    if not _is(value, kind):
        expected = getattr(kind, "__name__", str(kind))  # a union reads "float | None"
        raise FieldTypeError(f"{path}: expected {expected.replace('float', 'finite float')}, got {value!r}")
    if isinstance(kind, types.UnionType):
        kind = next(member for member in typing.get_args(kind) if _is(value, member))
    return float(value) if kind is float else value


_field_types = functools.cache(typing.get_type_hints)


def check_field_types(section: object) -> None:
    """Raise FieldTypeError for the first field of the config dataclass
    `section` whose value is not of its annotated type; store each value as
    _check returns it."""
    for name, kind in _field_types(type(section)).items():
        object.__setattr__(section, name, _check(getattr(section, name), kind, name))
