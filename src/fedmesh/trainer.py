"""Pluggable local training and client-side metric reporting.

The reference local model is logistic regression on the raw features with a
bias term folded into the parameter vector (P = n_features + 1). Every
protocol step downstream only sees flat weight vectors, so swapping in a
different model kind does not touch selection or aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .data import Dataset
from .params import ParamVector, l2_diff_norm

DEFAULT_ENERGY_ALPHA = 0.01
DEFAULT_ENERGY_BETA = 0.001

BehaviorKind = Literal["inflate_utility", "deflate_energy", "noise_weights"]


@dataclass(frozen=True)
class LocalModelSpec:
    """Hyperparameters of the local model and its energy-cost constants."""

    input_dim: int
    local_epochs: int = 5
    learning_rate: float = 0.1
    batch_size: int = 32
    energy_alpha: float = DEFAULT_ENERGY_ALPHA
    energy_beta: float = DEFAULT_ENERGY_BETA

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.local_epochs < 0 or self.batch_size < 1:
            raise ValueError("input_dim and batch_size must be positive, local_epochs nonnegative")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")

    @property
    def param_dim(self) -> int:
        return self.input_dim + 1  # weights plus bias


@dataclass(frozen=True)
class AdversaryBehavior:
    """A dishonest client behavior applied when building its report.

    - inflate_utility: reported utility is factor * the honest value
    - deflate_energy: reported energy is the honest value / factor
    - noise_weights: submitted weights get N(0, factor^2) noise per element
      while metrics are reported for the clean weights (masking the tamper)
    """

    kind: BehaviorKind
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("inflate_utility", "deflate_energy", "noise_weights"):
            raise ValueError(f"unknown adversary behavior {self.kind!r}")
        if not self.factor > 0:
            raise ValueError("behavior factor must be positive")


@dataclass(frozen=True)
class ClientReport:
    """Trained weights plus the client's self-reported metrics."""

    client_id: int
    weights: ParamVector
    reported_utility: float
    reported_energy: float
    security_index: float
    sample_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.security_index <= 1.0:
            raise ValueError(f"security_index must lie in [0, 1], got {self.security_index}")
        if self.sample_count <= 0:
            raise ValueError(f"sample_count must be positive, got {self.sample_count}")
        if self.reported_utility < 0 or self.reported_energy < 0:
            raise ValueError("reported metrics must be nonnegative")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function with the logit clipped to [-500, 500]; allocates one array."""
    p = np.maximum(z, -500.0)
    np.minimum(p, 500.0, out=p)
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    return np.reciprocal(p, out=p)


def _with_bias(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def predict_proba(weights: ParamVector, features: np.ndarray) -> np.ndarray:
    """Positive-class probability for each feature row."""
    if weights.dim != features.shape[1] + 1:
        raise ValueError(f"expected {features.shape[1] + 1} parameters, got {weights.dim}")
    return sigmoid(_with_bias(features) @ weights.values)


def gradient(weights: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean binary cross-entropy at raw weights.

    `rows` are bias-augmented feature rows (a trailing column of ones).
    """
    residual = sigmoid(rows @ weights)
    residual -= labels
    grad = rows.T @ residual
    grad /= len(labels)
    return grad


def train_local(
    start: ParamVector,
    spec: LocalModelSpec,
    dataset: Dataset,
    indices: np.ndarray | list[int],
    seed: int,
) -> ParamVector:
    """Mini-batch gradient descent on BCE from `start`; deterministic per seed."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("client has no training samples")
    if start.dim != spec.param_dim:
        raise ValueError(f"start has dim {start.dim}, model needs {spec.param_dim}")
    rows = _with_bias(dataset.features[idx])
    labs = dataset.labels[idx].astype(np.float64)
    rng = np.random.default_rng(seed)
    w = np.array(start.values, copy=True)
    n = len(idx)
    step = spec.batch_size
    for _ in range(spec.local_epochs):
        order = rng.permutation(n)
        # one gather per epoch; each batch is then a contiguous slice of it
        rows_e, labs_e = rows[order], labs[order]
        for lo in range(0, n, step):
            w -= spec.learning_rate * gradient(w, rows_e[lo : lo + step], labs_e[lo : lo + step])
    return ParamVector(w)


def build_report(
    client_id: int,
    trained: ParamVector,
    received: ParamVector,
    spec: LocalModelSpec,
    sample_count: int,
    security_index: float,
    behavior: AdversaryBehavior | None = None,
    rng: np.random.Generator | None = None,
) -> ClientReport:
    """Assemble the client's upload: weights plus self-reported metrics.

    An honest client reports utility as the summed per-parameter norm of its
    weight change and energy as alpha * sample_count + beta * param_count,
    which the edge can reproduce exactly from the same inputs. Adversarial
    behaviors distort the report (or the weights) as configured.
    """
    if trained.dim != received.dim:
        raise ValueError(f"dimension mismatch: {trained.dim} != {received.dim}")
    utility = l2_diff_norm(trained, received)
    energy = spec.energy_alpha * sample_count + spec.energy_beta * trained.dim
    weights = trained
    if behavior is not None:
        if behavior.kind == "inflate_utility":
            utility *= behavior.factor
        elif behavior.kind == "deflate_energy":
            energy /= behavior.factor
        elif behavior.kind == "noise_weights":
            if rng is None:
                raise ValueError("noise_weights behavior requires an rng")
            weights = ParamVector(trained.values + rng.normal(0.0, behavior.factor, trained.dim))
    return ClientReport(
        client_id=client_id,
        weights=weights,
        reported_utility=utility,
        reported_energy=energy,
        security_index=security_index,
        sample_count=sample_count,
    )
