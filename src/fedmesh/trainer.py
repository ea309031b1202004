"""Pluggable local training and client-side metric reporting.

The reference local model is logistic regression on the raw features with a
bias term folded into the parameter vector (P = n_features + 1). Every
protocol step downstream only sees flat weight vectors, so swapping in a
different model kind does not touch selection or aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .params import check_field_types

@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of the local model and its energy-cost constants."""

    local_epochs: int = 5
    learning_rate: float = 0.1
    batch_size: int = 32
    energy_alpha: float = 0.01
    energy_beta: float = 0.001

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.local_epochs < 0 or self.batch_size < 1:
            raise ValueError("batch_size must be positive, local_epochs nonnegative")
        for name in ("learning_rate", "energy_alpha", "energy_beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class AdversaryAssignment:
    """A dishonest client and how it distorts the report it builds.

    - inflate_utility: reported utility is factor * the honest value
    - deflate_energy: reported energy is the honest value / factor
    - noise_weights: submitted weights get N(0, factor^2) noise per element
      while metrics are reported for the clean weights (masking the tamper)
    """

    client_id: int
    kind: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in ("inflate_utility", "deflate_energy", "noise_weights"):
            raise ValueError(f"unknown adversary behavior {self.kind!r}")
        if not self.factor > 0:
            raise ValueError("behavior factor must be positive")


@dataclass(frozen=True)
class ClientReports:
    """One edge's uploads in a round, one row per client: the submitted weights
    plus each client's self-reported metrics."""

    client_ids: np.ndarray  # (n,)
    weights: np.ndarray  # (n, P)
    reported_utility: np.ndarray  # (n,)
    reported_energy: np.ndarray  # (n,)
    security_index: np.ndarray  # (n,)
    sample_count: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        n = len(self.client_ids)
        if self.weights.ndim != 2 or self.weights.shape[0] != n:
            raise ValueError(f"weights must have one row per client, got shape {self.weights.shape} for {n}")
        columns = (self.reported_utility, self.reported_energy, self.security_index, self.sample_count)
        if any(np.shape(c) != (n,) for c in columns):
            raise ValueError(f"every reported metric needs one entry per client ({n})")
        if not np.all((self.security_index >= 0.0) & (self.security_index <= 1.0)):
            raise ValueError(f"security_index must lie in [0, 1], got {self.security_index}")
        if np.any(self.sample_count <= 0):
            raise ValueError(f"sample_count must be positive, got {self.sample_count}")
        if np.any(self.reported_utility < 0) or np.any(self.reported_energy < 0):
            raise ValueError("reported metrics must be nonnegative")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function with the logit clipped to [-500, 500]; allocates one array."""
    p = np.maximum(z, -500.0)
    np.minimum(p, 500.0, out=p)
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    return np.reciprocal(p, out=p)


def model_dim(n_features: int) -> int:
    """Parameter count of the model on `n_features` features: one weight each plus the bias."""
    return n_features + 1


def _with_bias(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def predict_proba(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Positive-class probability for each feature row."""
    width = model_dim(features.shape[1])
    if np.shape(weights) != (width,):
        raise ValueError(f"expected {width} parameters, got shape {np.shape(weights)}")
    return sigmoid(_with_bias(features) @ weights)


def l1_distance(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """L1 norm of each row's difference from `reference`: row i gives
    sum_k |rows[i, k] - reference_k|, the same float as summing that row alone."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or np.shape(reference) != rows.shape[1:]:
        raise ValueError(f"dimension mismatch: rows of shape {rows.shape}, reference of shape {np.shape(reference)}")
    return np.abs(rows - reference).sum(axis=1)


def surrogate_energy(spec: TrainerConfig, sample_counts: Sequence[int], param_count: int) -> np.ndarray:
    """The energy of each client that trained a param_count-parameter model on
    sample_counts[i] samples: energy_alpha * sample_counts[i] + energy_beta * param_count."""
    return spec.energy_alpha * np.asarray(sample_counts, dtype=np.int64) + spec.energy_beta * param_count


def gradient(weights: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean binary cross-entropy at raw weights.

    `rows` are bias-augmented feature rows (a trailing column of ones) of shape
    (..., B, P), `weights` (..., P) and `labels` (..., B); any leading axes are
    independent problems. Each product is one matrix-vector `matmul` per leading
    index, so a stacked call gives the same floats as one call per problem.
    """
    residual = sigmoid(np.matmul(rows, weights[..., None])[..., 0])
    residual -= labels
    grad = np.matmul(np.swapaxes(rows, -1, -2), residual[..., None])[..., 0]
    grad /= labels.shape[-1]
    return grad


class DivergedError(ValueError):
    """Training left a client's weights non-finite; `index` is its position in the shard list."""

    def __init__(self, index: int):
        super().__init__(f"trained weights of shard {index} are not finite")
        self.index = index


def train_clients(
    start: np.ndarray,
    spec: TrainerConfig,
    dataset: Dataset,
    shards: Sequence[np.ndarray | list[int]],
    seeds: Sequence[int],
) -> np.ndarray:
    """Mini-batch gradient descent on BCE from `start` for every shard; deterministic per seed.

    Row i of the (len(shards), P) result is client i's weights. Client i
    trains on the rows `shards[i]` of `dataset` (1-D integer ids), shuffled
    each epoch by its own `default_rng(seeds[i])`, and the result does not
    depend on which other clients are trained with it. All clients take their
    k-th full batch in one stacked step, then their final partial batches in
    one stacked step per distinct length.

    Each client's Python cost is paid once per call: one `permuted` call on
    its (local_epochs, rows) block draws every epoch's order, the stream of one
    `permutation` per epoch. The clients train in descending order of their
    full-batch count, so every full-batch step updates a prefix of the stacked
    weights in place; consecutive steps share one gather of their rows, at most
    as many as the largest step's.
    """
    if len(shards) != len(seeds):
        raise ValueError(f"{len(shards)} shards but {len(seeds)} seeds")
    width = model_dim(dataset.n_features)
    if np.shape(start) != (width,):
        raise ValueError(f"start has dim {np.size(start)}, model needs {width}")
    shards = [np.asarray(shard) for shard in shards]
    if any(shard.size == 0 for shard in shards):
        raise ValueError("client has no training samples")
    for i, shard in enumerate(shards):
        if shard.ndim != 1 or shard.dtype.kind not in "iu":
            raise ValueError(f"shard {i} is not a 1-D array of integer row ids ({shard.dtype}, shape {shard.shape})")
    if not shards:
        return np.empty((0, width))
    step, lr = spec.batch_size, spec.learning_rate
    sizes = np.array([shard.size for shard in shards])
    order = np.argsort(-(sizes // step), kind="stable")  # training order: descending full-batch count
    sizes = sizes[order]
    offsets = np.cumsum(sizes) - sizes
    ids = np.concatenate([shards[i] for i in order], dtype=np.int64)  # the client at order[j] at offsets[j]
    if ids.min() < 0 or ids.max() >= dataset.n_samples:
        bad = np.flatnonzero((ids < 0) | (ids >= dataset.n_samples))
        i = order[np.searchsorted(offsets + sizes, bad, "right")].min()
        raise ValueError(f"shard {i} has row ids outside [0, {dataset.n_samples})")
    full, tail = sizes // step, sizes % step
    # stacked steps in training order, as (clients, where their batches sit in an epoch's order): every
    # client's k-th full batch, then the final partial batches, one step per distinct length; a step
    # whose clients are a prefix, as every full-batch step's are, takes them as a view
    batches = [(full > k, offsets + k * step, step) for k in range(int(full.max()))]
    batches += [(tail == t, offsets + full * step, t) for t in np.unique(tail[tail > 0])]
    steps = []
    for mask, first, n in batches:
        clients = np.flatnonzero(mask)
        positions = first[clients, None] + np.arange(n)
        steps.append((slice(0, clients.size) if clients[-1] == clients.size - 1 else clients, positions))
    # consecutive steps share one gather of at most `cap` rows into `rows` and `y`, as (its positions,
    # then per step: its clients, and its batch and labels as views of the buffers)
    cap = max(positions.size for _, positions in steps)
    rows = np.ones((cap, width))  # last column stays the bias input
    y = np.empty(cap)
    gathers, used = [], cap
    for clients, positions in steps:
        if used + positions.size > cap:
            gathers.append(([], []))
            used = 0
        span = slice(used, used + positions.size)
        gathers[-1][0].append(positions.ravel())
        gathers[-1][1].append((clients, rows[span].reshape(*positions.shape, width), y[span].reshape(positions.shape)))
        used += positions.size
    gathers = [(np.concatenate(positions), group) for positions, group in gathers]
    epochs = np.tile(ids, (spec.local_epochs, 1))  # row e: every client's rows in its epoch-e order
    for seed, lo, hi in zip([seeds[i] for i in order], offsets.tolist(), (offsets + sizes).tolist()):
        block = epochs[:, lo:hi]
        np.random.default_rng(seed).permuted(block, axis=1, out=block)
    labels = dataset.labels.astype(np.float64)
    w = np.tile(start, (len(shards), 1))
    for epoch in epochs:
        for positions, group in gathers:
            batch_ids = epoch[positions]
            rows[: batch_ids.size, :-1] = np.take(dataset.features, batch_ids, axis=0)
            y[: batch_ids.size] = labels[batch_ids]
            for clients, batch, batch_labels in group:
                g = gradient(w[clients], batch, batch_labels)
                g *= lr
                w[clients] -= g
    w[order] = w.copy()  # back to the shards' order
    diverged = np.flatnonzero(~np.isfinite(w).all(axis=1))
    if diverged.size:
        raise DivergedError(int(diverged[0]))
    return w


class Cohort:
    """Clients that train from the same `start` on the same dataset, in lockstep.

    Each member is still trained by its own `train_local` call; the first such
    call trains every member in one `train_clients` run and the others read
    their weights from it.
    """

    def __init__(
        self,
        start: np.ndarray,
        spec: TrainerConfig,
        dataset: Dataset,
        shards: Sequence[np.ndarray | list[int]],
        seeds: Sequence[int],
    ):
        if len(shards) != len(seeds):
            raise ValueError(f"{len(shards)} shards but {len(seeds)} seeds")
        if len(set(seeds)) != len(seeds):
            raise ValueError("cohort members need distinct seeds")
        self._start, self._spec, self._dataset = start, spec, dataset
        self._shards, self._seeds = list(shards), list(seeds)
        self._member = {s: k for k, s in enumerate(seeds)}
        self._trained: np.ndarray | None = None

    def trained(
        self,
        start: np.ndarray,
        spec: TrainerConfig,
        dataset: Dataset,
        indices: np.ndarray | list[int],
        seed: int,
    ) -> np.ndarray:
        k = self._member.get(seed)
        if (
            k is None
            or start is not self._start
            or dataset is not self._dataset
            or spec != self._spec
            or not (indices is self._shards[k] or np.array_equal(indices, self._shards[k]))
        ):
            raise ValueError(f"the client with seed {seed} is not a member of this cohort")
        if self._trained is None:
            self._trained = train_clients(self._start, self._spec, self._dataset, self._shards, self._seeds)
            self._trained.setflags(write=False)  # members share it, each reading its own row
        return self._trained[k]


def train_local(
    start: np.ndarray,
    spec: TrainerConfig,
    dataset: Dataset,
    indices: np.ndarray | list[int],
    seed: int,
    cohort: Cohort,
) -> np.ndarray:
    """One client's weights after mini-batch descent from `start` on the rows
    `indices`, trained in lockstep with the other members of `cohort` (see
    `Cohort`); the same bytes as training it alone."""
    return cohort.trained(start, spec, dataset, indices, seed)


def build_report(
    client_ids: Sequence[int],
    trained: np.ndarray,
    received: np.ndarray,
    spec: TrainerConfig,
    sample_counts: Sequence[int],
    security_indices: Sequence[float],
    adversaries: Sequence[AdversaryAssignment] = (),
    rng_for: Callable[[int], np.random.Generator] | None = None,
) -> ClientReports:
    """Assemble the uploads of clients that trained from `received`, one row each.

    An honest client reports utility as the L1 norm of its weight change,
    sum_k |trained_k - received_k|, and energy as surrogate_energy, which the
    edge can reproduce exactly from the same inputs. A client named in
    `adversaries` distorts its report (or weights) as assigned; a
    noise_weights client draws its noise from `rng_for(client_id)`.
    """
    trained = np.asarray(trained, dtype=np.float64)
    utility = l1_distance(trained, received)
    energy = surrogate_energy(spec, sample_counts, len(received))
    weights = trained
    behaviors = {a.client_id: a for a in adversaries}
    for row, cid in enumerate(client_ids):
        behavior = behaviors.get(cid)
        if behavior is None:
            continue
        if behavior.kind == "inflate_utility":
            utility[row] *= behavior.factor
        elif behavior.kind == "deflate_energy":
            energy[row] /= behavior.factor
        elif behavior.kind == "noise_weights":
            if rng_for is None:
                raise ValueError("noise_weights behavior requires an rng")
            if weights is trained:
                weights = trained.copy()
            weights[row] += rng_for(cid).normal(0.0, behavior.factor, len(received))
    return ClientReports(
        client_ids=np.asarray(client_ids, dtype=np.int64),
        weights=weights,
        reported_utility=utility,
        reported_energy=energy,
        security_index=np.asarray(security_indices, dtype=np.float64),
        sample_count=np.asarray(sample_counts, dtype=np.int64),
    )
