"""Synthetic non-IID data generation, edge/client partitioning, and CSV ingestion.

The synthetic task is a linearly-separable-with-noise binary classification
problem with a controllable positive-class fraction, standing in for real
tabular data. Heterogeneity across clients is produced by Dirichlet label-skew
partitioning; one edge can additionally be feature-shifted to act as an
out-of-distribution region.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

# label noise as a fraction of the latent score's standard deviation
DEFAULT_LABEL_NOISE = 0.35


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (rows = samples) with binary labels.

    Columns are z-score normalized at creation time (generator / CSV reader);
    subsets taken for individual clients are not re-normalized.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        labs = np.array(self.labels, dtype=np.int64, copy=True)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError(f"features must be a nonempty 2-D matrix, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be 1-D with one entry per feature row")
        if not np.all((labs == 0) | (labs == 1)):
            raise ValueError("labels must be binary (0/1)")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])


def generate_synthetic(
    n_samples: int,
    n_features: int,
    class_imbalance: float,
    seed: int,
    label_noise: float = DEFAULT_LABEL_NOISE,
) -> Dataset:
    """Linearly separable binary data with label noise and a target positive fraction.

    Labels come from thresholding a noisy linear score of the features at the
    (1 - class_imbalance) quantile, so the positive fraction matches
    class_imbalance up to 1/n_samples. Deterministic for a fixed seed.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    if n_features < 1:
        raise ValueError(f"n_features must be positive, got {n_features}")
    if not 0.0 < class_imbalance < 1.0:
        raise ValueError(f"class_imbalance must lie in (0, 1), got {class_imbalance}")

    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n_features)
    direction /= np.linalg.norm(direction)
    feats = rng.normal(size=(n_samples, n_features))
    score = feats @ direction + rng.normal(0.0, label_noise, size=n_samples)
    cutoff = np.quantile(score, 1.0 - class_imbalance)
    labels = (score > cutoff).astype(np.int64)

    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    return Dataset((feats - mean) / std, labels)


def partition_noniid(
    d: Dataset,
    n_clients: int,
    dirichlet_alpha: float,
    seed: int,
) -> list[np.ndarray]:
    """Dirichlet label-skew partition of all samples across n_clients clients.

    For each class, the class's rows are split across all clients with
    proportions drawn from Dirichlet(alpha); small alpha gives strongly skewed
    per-client label mixes, large alpha approaches IID. Entry c holds client
    c's sorted rows, and every row is held by exactly one client. Starved
    clients are topped up until every client holds at least 2 samples of some
    class.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be positive, got {n_clients}")
    if not dirichlet_alpha > 0:
        raise ValueError(f"dirichlet_alpha must be positive, got {dirichlet_alpha}")
    if d.n_samples < 2 * n_clients:
        raise ValueError(
            f"{d.n_samples} samples cannot give {n_clients} clients >= 2 samples each"
        )

    rng = np.random.default_rng(seed)
    class_rows = [np.flatnonzero(d.labels == c) for c in (0, 1)]

    # per client, per class row indices
    empty = np.array([], dtype=np.int64)
    holdings: list[list[np.ndarray]] = [[empty, empty] for _ in range(n_clients)]
    for cls, rows in enumerate(class_rows):
        if len(rows) == 0:
            continue
        shuffled = rng.permutation(rows)
        proportions = rng.dirichlet([dirichlet_alpha] * n_clients)
        counts = _largest_remainder_counts(proportions, len(rows))
        for j, part in enumerate(np.split(shuffled, np.cumsum(counts)[:-1])):
            holdings[j][cls] = part
    _repair_starved_clients(holdings)
    return [np.sort(np.concatenate(classes)) for classes in holdings]


def _repair_starved_clients(holdings: list[list[np.ndarray]]) -> None:
    """Top up clients lacking 2 samples of every class from the richest donor.

    Extreme Dirichlet draws routinely leave a few clients nearly empty; moving
    a handful of samples deterministically keeps the draw's skew while meeting
    the minimum client size. Each move takes the donor's last row of the
    class. Donors keep at least 2 samples of the class.
    """
    for cid, classes in enumerate(holdings):
        if max(len(classes[0]), len(classes[1])) >= 2:
            continue
        filled = False
        for cls in sorted((0, 1), key=lambda c: -len(classes[c])):
            while len(classes[cls]) < 2:
                donor = max(
                    (d for d in range(len(holdings)) if d != cid),
                    key=lambda d: len(holdings[d][cls]),
                )
                given = holdings[donor][cls]
                if len(given) <= 2:
                    break  # donors exhausted for this class, try the other
                classes[cls] = np.append(classes[cls], given[-1])
                holdings[donor][cls] = given[:-1]
            if len(classes[cls]) >= 2:
                filled = True
                break
        if not filled:
            raise ValueError(
                "could not give every client >= 2 samples of one class; "
                "increase samples or reduce client count"
            )


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def shift_features(d: Dataset, row_indices: Sequence[int], offset: float) -> Dataset:
    """Add a constant offset (in column std units; data is z-scored) to selected rows."""
    idx = np.asarray(row_indices, dtype=np.int64)
    feats = np.array(d.features, copy=True)
    feats[idx] += offset
    return Dataset(feats, d.labels)


def ingest_csv(path: str, label_column: str) -> tuple[Dataset, int]:
    """Load a header-first CSV, z-score the feature columns, drop incomplete rows.

    Returns the dataset together with the number of dropped rows. A row is
    dropped when any cell is empty or fails to parse as a number. The label
    column must contain only 0/1 values.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or label_column not in reader.fieldnames:
            raise ValueError(f"label column {label_column!r} not found in CSV header")
        feature_cols = [c for c in reader.fieldnames if c != label_column]
        if not feature_cols:
            raise ValueError("CSV has no feature columns")
        rows: list[list[float]] = []
        labels: list[int] = []
        dropped = 0
        for record in reader:
            try:
                feats = [float(record[c]) for c in feature_cols]
                label = float(record[label_column])
            except (TypeError, ValueError):
                dropped += 1
                continue
            if label not in (0.0, 1.0):
                raise ValueError(f"label column must be binary 0/1, found {record[label_column]!r}")
            rows.append(feats)
            labels.append(int(label))

    if not rows:
        raise ValueError(f"no usable rows in {path} ({dropped} dropped)")
    if dropped:
        logger.info("ingest_csv(%s): dropped %d rows with missing values", path, dropped)

    feats = np.asarray(rows, dtype=np.float64)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    d = Dataset((feats - mean) / std, np.asarray(labels, dtype=np.int64))
    return d, dropped


def split(
    d: Dataset,
    train: float,
    val: float,
    test: float,
    seed: int,
) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified disjoint train/val/test split; fractions must be nonnegative and sum to 1."""
    if min(train, val, test) < 0 or abs(train + val + test - 1.0) > 1e-9:
        raise ValueError(f"fractions must be nonnegative and sum to 1, got {(train, val, test)}")
    rng = np.random.default_rng(seed)
    per_class = []
    for c in (0, 1):
        rows = rng.permutation(np.flatnonzero(d.labels == c))
        counts = _largest_remainder_counts(np.array([train, val, test]), len(rows))
        per_class.append(np.split(rows, np.cumsum(counts)[:-1]))
    out = []
    for chunks, tag in zip(zip(*per_class), ("train", "val", "test")):
        rows = np.sort(np.concatenate(chunks))
        if not rows.size:
            raise ValueError(f"{tag} split is empty; adjust fractions or dataset size")
        out.append(d.subset(rows))
    return out[0], out[1], out[2]
