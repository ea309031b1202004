"""Flat parameter vectors and the arithmetic kernels used by every aggregation step.

All model weights, weight updates, and aggregated models in the simulator are
plain 1-D float64 vectors of a fixed dimension P. Vectors are immutable after
construction and every public operation checks that its output is finite, so
NaN/Inf can never propagate silently through a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    def __add__(self, other: "ParamVector") -> "ParamVector":
        _check_dims(self, other)
        return ParamVector(self.values + other.values)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        _check_dims(self, other)
        return ParamVector(self.values - other.values)

    def __repr__(self) -> str:
        return f"ParamVector(dim={self.dim})"


def zeros(dim: int) -> ParamVector:
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return ParamVector(np.zeros(dim))


def _check_dims(a: ParamVector, b: ParamVector) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def l2_diff_norm(rows: np.ndarray, reference: ParamVector) -> np.ndarray:
    """Summed per-parameter norm of each row's difference from `reference`.

    Every scalar entry counts as its own parameter, so row i gives
    sum_k |rows[i, k] - reference_k|: the same float as summing that row alone.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != reference.dim:
        raise ValueError(f"dimension mismatch: rows of shape {rows.shape}, reference of dim {reference.dim}")
    return np.abs(rows - reference.values).sum(axis=1)


def weighted_sum(terms: Sequence[tuple[float, ParamVector]]) -> ParamVector:
    """Elementwise sum of coefficient * vector over all terms."""
    if not terms:
        raise ValueError("weighted_sum requires at least one term")
    dim = terms[0][1].dim
    acc = np.zeros(dim)
    for coeff, vec in terms:
        if vec.dim != dim:
            raise ValueError(f"dimension mismatch: {vec.dim} != {dim}")
        acc += float(coeff) * vec.values
    return ParamVector(acc)


def clip_elementwise(v: ParamVector, clip_val: float) -> ParamVector:
    """Clamp every entry into [-clip_val, +clip_val]."""
    if not clip_val > 0:
        raise ValueError(f"clip_val must be positive, got {clip_val}")
    return ParamVector(np.clip(v.values, -clip_val, clip_val))


def clip_l2(v: ParamVector, max_norm: float) -> ParamVector:
    """Rescale v onto the L2 ball of radius max_norm; direction is preserved."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = float(np.linalg.norm(v.values))
    if norm <= max_norm:
        return v
    return ParamVector(v.values * (max_norm / norm))
