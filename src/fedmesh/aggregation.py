"""Cross-edge model blending and the sample-weighted central aggregate.

Each edge mixes its own locally aggregated model (self-weight alpha) with the
other edges' models weighted by their share of the other edges' samples, then
clamps the result elementwise. The central server only ever sees these
edge-level models plus sample counts, never anything client-level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ParamVector

DEFAULT_SELF_WEIGHT = 0.5
DEFAULT_CLIP_VAL = 5.0


@dataclass(frozen=True)
class EdgeUpdate:
    """An edge's locally aggregated model and the sample mass behind it."""

    edge_id: int
    local_model: ParamVector
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count <= 0:
            raise ValueError(f"edge {self.edge_id}: sample_count must be positive")


@dataclass(frozen=True)
class CrossEdgeConfig:
    """Blend settings for the exchange step: the self-weight alpha and the clamp bound.

    The peer coefficients n_j / sum_{j != i} n_j form a convex combination, so
    the blend preserves model scale.
    """

    alpha: float = DEFAULT_SELF_WEIGHT
    clip_val: float = DEFAULT_CLIP_VAL

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.clip_val > 0:
            raise ValueError(f"clip_val must be positive, got {self.clip_val}")


def cross_edge_exchange(updates: Sequence[EdgeUpdate], config: CrossEdgeConfig) -> np.ndarray:
    """Blend every edge's model with its peers'; row i of the (E, P) result is
    the blend of the edge with the i-th smallest id.

    For edge i: clip( alpha * w_i + (1 - alpha) * sum_{j != i} c_ij * w_j )
    with c_ij = n_j / sum_{k != i} n_k. Every row starts from zeros, adds its
    own term, then one term per peer in ascending id; that order fixes every
    output bit. A single edge simply gets its own model clipped.
    """
    if not updates:
        raise ValueError("cross_edge_exchange requires at least one edge")
    ordered = sorted(updates, key=lambda u: u.edge_id)
    if len({u.edge_id for u in ordered}) != len(ordered):
        raise ValueError("duplicate edge ids")
    dim = ordered[0].local_model.dim
    if any(u.local_model.dim != dim for u in ordered):
        raise ValueError("all edge models must share one dimension")
    models = np.stack([u.local_model.values for u in ordered])
    if len(ordered) == 1:
        return np.clip(models, -config.clip_val, config.clip_val)

    counts = np.array([u.sample_count for u in ordered], dtype=np.int64)
    peer_totals = counts.sum() - counts
    blended = np.zeros_like(models)
    blended += config.alpha * models
    for j, (n_j, w_j) in enumerate(zip(counts.tolist(), models)):
        peers = np.arange(len(ordered)) != j
        term = ((1.0 - config.alpha) * n_j / peer_totals)[:, None] * w_j
        np.add(blended, term, out=blended, where=peers[:, None])
    return np.clip(blended, -config.clip_val, config.clip_val)


def central_aggregate(models: np.ndarray, sample_counts: Sequence[int]) -> np.ndarray:
    """Sample-weighted mean of the edges' models, one per row: starting from
    zeros, the rows are added in the order given."""
    models = np.asarray(models, dtype=np.float64)
    if models.ndim != 2 or len(models) == 0 or len(models) != len(sample_counts):
        raise ValueError(f"one sample count per model row required, got {len(sample_counts)} for {models.shape}")
    total = sum(sample_counts)
    if total <= 0:
        raise ValueError("zero total samples across edges")
    acc = np.zeros(models.shape[1])
    for n, row in zip(sample_counts, models):
        acc += n / total * row
    return acc
