"""Synthetic non-IID data generation, edge/client partitioning, and CSV ingestion.

The synthetic task is a linearly-separable-with-noise binary classification
problem with a controllable positive-class fraction, standing in for real
tabular data. Heterogeneity across clients is produced by Dirichlet label-skew
partitioning; one edge can additionally be feature-shifted to act as an
out-of-distribution region. Splits and partitions are sorted int64 row ids
into the one dataset they were drawn from, never copies of its rows.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import check_field_types

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DataConfig:
    n_samples: int = 2000
    n_features: int = 10
    class_imbalance: float = 0.5
    label_noise: float = 0.35  # a fraction of the latent score's standard deviation
    dirichlet_alpha: float = 0.5
    train_fraction: float = 0.7
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    edge_test_fraction: float = 0.2
    unknown_edge: int | None = None
    unknown_shift: float = 1.0
    csv_path: str | None = None
    label_column: str | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        fractions = (self.train_fraction, self.val_fraction, self.test_fraction)
        checks = {
            "n_samples must be >= 100": self.n_samples >= 100,
            "n_features must be >= 1": self.n_features >= 1,
            "class_imbalance must lie in (0, 1)": 0 < self.class_imbalance < 1,
            "label_noise must be >= 0": self.label_noise >= 0,
            "dirichlet_alpha must be > 0": self.dirichlet_alpha > 0,
            "train/val/test fractions must be positive and sum to 1": (
                min(fractions) > 0 and abs(sum(fractions) - 1.0) <= 1e-9
            ),
            "edge_test_fraction must lie in [0, 1]": 0 <= self.edge_test_fraction <= 1,
            "label_column is required when csv_path is set": self.csv_path is None or self.label_column is not None,
        }
        for message, holds in checks.items():
            if not holds:
                raise ValueError(message)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (rows = samples) with binary labels.

    Columns are z-score normalized at creation time (generator / CSV reader);
    subsets taken for individual clients are not re-normalized.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats, labs = np.asarray(self.features), np.asarray(self.labels)
        if feats.dtype.kind not in "biuf":
            raise ValueError(f"features must be boolean, integer or real, got dtype {feats.dtype}")
        if labs.dtype.kind not in "biuf" or not np.all((labs == 0) | (labs == 1)):
            raise ValueError(f"labels must be binary (0/1), got dtype {labs.dtype}")
        feats = np.array(feats, dtype=np.float64, copy=True)
        labs = np.array(labs, dtype=np.int64, copy=True)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError(f"features must be a nonempty 2-D matrix, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be 1-D with one entry per feature row")
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


def generate_synthetic(config: DataConfig, seed: int) -> Dataset:
    """Linearly separable binary data with label noise and a target positive fraction.

    Labels come from thresholding a noisy linear score of the features at the
    (1 - class_imbalance) quantile, so the positive fraction matches
    class_imbalance up to 1/n_samples. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=config.n_features)
    direction /= np.linalg.norm(direction)
    feats = rng.normal(size=(config.n_samples, config.n_features))
    score = feats @ direction + rng.normal(0.0, config.label_noise, size=config.n_samples)
    cutoff = np.quantile(score, 1.0 - config.class_imbalance)
    labels = (score > cutoff).astype(np.int64)
    return Dataset(_zscore(feats), labels)


def _zscore(feats: np.ndarray) -> np.ndarray:
    """Z-score each column of `feats` in place, a zero std taken as 1, and return `feats`."""
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    feats -= mean
    feats /= std
    return feats


def partition_noniid(
    d: Dataset,
    rows: np.ndarray,
    n_clients: int,
    dirichlet_alpha: float,
    seed: int,
) -> list[np.ndarray]:
    """Dirichlet label-skew partition of the given sorted rows of `d` across n_clients clients.

    For each class, the class's rows are split across all clients with
    proportions drawn from Dirichlet(alpha); small alpha gives strongly skewed
    per-client label mixes, large alpha approaches IID. Entry c holds client
    c's sorted row ids into `d`, and every given row is held by exactly one
    client. Starved clients are topped up until every client holds at least 2
    samples of some class.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be positive, got {n_clients}")
    if not dirichlet_alpha > 0:
        raise ValueError(f"dirichlet_alpha must be positive, got {dirichlet_alpha}")
    if len(rows) < 2 * n_clients:
        raise ValueError(
            f"{len(rows)} samples cannot give {n_clients} clients >= 2 samples each"
        )

    rng = np.random.default_rng(seed)
    labels = d.labels[rows]
    class_rows = [rows[labels == c] for c in (0, 1)]

    # per client, per class row indices
    empty = np.array([], dtype=np.int64)
    holdings: list[list[np.ndarray]] = [[empty, empty] for _ in range(n_clients)]
    for cls, members in enumerate(class_rows):
        if len(members) == 0:
            continue
        shuffled = rng.permutation(members)
        proportions = rng.dirichlet([dirichlet_alpha] * n_clients)
        counts = _largest_remainder_counts(proportions, len(members))
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
    dropped when its cell count differs from the header's or any cell, the
    label's included, is empty or not a finite number (nan and inf count as
    missing). Every kept label must be 0 or 1; a column named twice is refused.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or label_column not in reader.fieldnames:
            raise ValueError(f"label column {label_column!r} not found in CSV header")
        header = reader.fieldnames
        twice = next((c for i, c in enumerate(header) if c in header[:i]), None)
        if twice is not None:
            raise ValueError(f"column {twice!r} is given twice in the CSV header")
        feature_cols = [c for c in header if c != label_column]
        if not feature_cols:
            raise ValueError("CSV has no feature columns")
        rows: list[list[float]] = []
        labels: list[int] = []
        dropped = 0
        for record in reader:
            try:
                *feats, label = [float(record[c]) for c in (*feature_cols, label_column)]
            except (TypeError, ValueError):  # an empty or non-numeric cell
                feats, label = [], math.nan
            # a long row's extra cells sit under the key None; a short row's missing cells read None
            if None in record or not (math.isfinite(label) and all(map(math.isfinite, feats))):
                dropped += 1
                continue
            if label not in (0.0, 1.0):
                raise ValueError(f"label column must be binary 0/1, found {record[label_column]!r}")
            rows.append(feats)
            labels.append(int(label))

    if not rows:
        raise ValueError(f"no usable rows in {path} ({dropped} dropped)")
    if dropped:
        logger.info("ingest_csv(%s): dropped %d incomplete rows", path, dropped)

    return Dataset(_zscore(np.asarray(rows, dtype=np.float64)), np.asarray(labels, dtype=np.int64)), dropped


def split(d: Dataset, config: DataConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified disjoint train/val/test split by the config's fractions, as
    three sorted int64 row-id arrays into `d`; each class's rows are dealt by
    largest remainders, and an empty part is an error."""
    fractions = np.array([config.train_fraction, config.val_fraction, config.test_fraction])
    rng = np.random.default_rng(seed)
    per_class = []
    for c in (0, 1):
        rows = rng.permutation(np.flatnonzero(d.labels == c))
        counts = _largest_remainder_counts(fractions, len(rows))
        per_class.append(np.split(rows, np.cumsum(counts)[:-1]))
    out = []
    for chunks, tag in zip(zip(*per_class), ("train", "val", "test")):
        rows = np.sort(np.concatenate(chunks))
        if not rows.size:
            raise ValueError(f"{tag} split is empty; adjust fractions or dataset size")
        out.append(rows)
    return out[0], out[1], out[2]
