"""The frozen, validated wrapper a model wears where it leaves its tier.

Every model in the simulator is a plain 1-D float64 array of a fixed
dimension P, and a stack of models is an (n, P) array. ParamVector wraps one
such array where it crosses from one tier to the next: the update a client
encrypts for its edge (secagg.encrypt_update) and an edge's model on its way
to the exchange (aggregation.EdgeUpdate). Construction copies the array,
refuses anything but a nonempty, finite 1-D vector and freezes it, so NaN/Inf
can never cross those boundaries.
"""

from __future__ import annotations

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
