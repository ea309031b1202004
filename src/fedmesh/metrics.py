"""Binary classification metrics and the cross-edge fairness index.

AUROC is computed from the Mann-Whitney rank statistic with midrank tie
handling, so it agrees with exhaustive pairwise comparison including ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class BinaryMetrics:
    """Threshold metrics plus AUROC for one prediction set.

    auroc is None when undefined (single-class labels).
    """

    accuracy: float
    f1_macro: float
    f1_weighted: float
    auroc: float | None
    loss: float


@dataclass(frozen=True)
class RoundRecord:
    """Per-round evaluation snapshot used for logs and early stopping: the
    global model on the validation and test sets, and each edge's blended
    model on its test shard."""

    round: int
    val: BinaryMetrics
    test: BinaryMetrics
    per_edge: Mapping[int, BinaryMetrics]
    jfi: float


def _bce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; each
    term is the log of the probability given to the true label, as y log p + (1 - y) log(1 - p) is
    when both logs are finite."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(np.log(np.where(labels == 1, p, 1 - p))))


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def _midrank_auroc(probs: np.ndarray, labels: np.ndarray) -> float:
    """AUROC via the rank-sum statistic; ties get the mean of their ranks.

    A tie group's midrank does not depend on the order within the group, so
    any sort order gives the same ranks."""
    order = np.argsort(probs)
    sorted_probs = probs[order]
    # tie groups are maximal runs of equal sorted values, [starts[g], ends[g]]
    breaks = np.flatnonzero(sorted_probs[1:] != sorted_probs[:-1])
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(probs) - 1]))
    ranks = np.empty(len(probs))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)  # midrank, 1-based
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def binary_metrics(
    predicted_probs: Sequence[float],
    labels: Sequence[int],
    threshold: float = 0.5,
) -> BinaryMetrics:
    """Accuracy, per-class F1 aggregates, AUROC and BCE loss for one batch."""
    probs = np.asarray(predicted_probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if probs.shape != y.shape or probs.ndim != 1 or probs.size == 0:
        raise ValueError("predicted_probs and labels must be nonempty 1-D sequences of equal length")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary (0/1)")

    # one count per (prediction, label) cell, indexed 2 * prediction + label
    tn, fn, fp, tp = np.bincount(2 * (probs >= threshold) + y, minlength=4).tolist()
    n = len(y)

    accuracy = (tp + tn) / n
    f1_pos = _f1(tp, fp, fn)
    f1_neg = _f1(tn, fn, fp)
    n_pos = tp + fn
    n_neg = tn + fp
    f1_macro = 0.5 * (f1_pos + f1_neg)
    f1_weighted = (n_pos * f1_pos + n_neg * f1_neg) / n

    if n_pos == 0 or n_neg == 0:
        auroc = None
    else:
        auroc = _midrank_auroc(probs, y)

    return BinaryMetrics(
        accuracy=accuracy,
        f1_macro=f1_macro,
        f1_weighted=f1_weighted,
        auroc=auroc,
        loss=_bce(probs, y),
    )


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's index (sum x)^2 / (n * sum x^2); 1.0 means perfectly equal, as
    does an empty or all-zero input, where no value is below another."""
    x = np.asarray(values, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("jain_fairness requires nonnegative values")
    peak = float(np.max(x, initial=0.0))
    if peak == 0.0:
        return 1.0
    x = x / peak  # scale-invariant; guards squaring against under/overflow
    total = float(np.sum(x))
    return total * total / (x.size * float(np.sum(x * x)))
