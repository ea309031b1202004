"""The frozen, validated wrapper a model wears where it leaves its tier.

Every model in the simulator is a plain 1-D float64 array of a fixed
dimension P, and a stack of models is an (n, P) array. ParamVector wraps one
such array where it crosses from one tier to the next: the update a client
encrypts for its edge (secagg.encrypt_update) and an edge's model on its way
to the exchange (aggregation.EdgeUpdate). Construction copies the array,
refuses anything but a nonempty, finite 1-D vector and freezes it, so NaN/Inf
can never cross those boundaries.

refuse_float_overflow is the one range rule every config section applies to
its float fields before its own checks.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import dataclass

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


@functools.cache
def _float_fields(section_type: type) -> tuple[str, ...]:
    """The fields of a dataclass annotated float or a union with float."""
    return tuple(
        name
        for name, kind in typing.get_type_hints(section_type).items()
        if kind is float or (isinstance(kind, types.UnionType) and float in typing.get_args(kind))
    )


def refuse_float_overflow(section: object) -> None:
    """Raise ValueError if a float field of the config dataclass `section`
    holds an int beyond the float range. Such an int compares exactly
    (10**400 > 0 holds), so a range check alone would let it through."""
    for name in _float_fields(type(section)):
        value = getattr(section, name)
        if isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name} is an integer beyond the float range") from None
