"""Pluggable local training and client-side metric reporting.

The reference local model is logistic regression on the raw features with a
bias term folded into the parameter vector (P = n_features + 1). Every
protocol step downstream only sees flat weight vectors, so swapping in a
different model kind does not touch selection or aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset

DEFAULT_ENERGY_ALPHA = 0.01
DEFAULT_ENERGY_BETA = 0.001

# rows gathered into the stacked-step buffer at once (more when one step needs more); larger
# buffers trained no faster and raised the peak memory of small cohorts, whose whole epoch they held
_GATHER_ROWS = 512


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of the local model and its energy-cost constants."""

    local_epochs: int = 5
    learning_rate: float = 0.1
    batch_size: int = 32
    energy_alpha: float = DEFAULT_ENERGY_ALPHA
    energy_beta: float = DEFAULT_ENERGY_BETA

    def __post_init__(self) -> None:
        if self.local_epochs < 0 or self.batch_size < 1:
            raise ValueError("batch_size must be positive, local_epochs nonnegative")
        for name in ("learning_rate", "energy_alpha", "energy_beta"):
            if not 0 <= getattr(self, name) < math.inf:
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


def l2_diff_norm(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Summed per-parameter norm of each row's difference from `reference`.

    Every scalar entry counts as its own parameter, so row i gives
    sum_k |rows[i, k] - reference_k|: the same float as summing that row alone.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or np.shape(reference) != rows.shape[1:]:
        raise ValueError(f"dimension mismatch: rows of shape {rows.shape}, reference of shape {np.shape(reference)}")
    return np.abs(rows - reference).sum(axis=1)


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
    trains on the rows `shards[i]` of `dataset`, shuffled each epoch by its
    own `default_rng(seeds[i])`, and the result does not depend on which
    other clients are trained with it. All clients take their k-th full batch
    in one stacked step, then their final partial batches in one stacked step
    per distinct length. Each epoch's rows are gathered step after step, a
    buffer of consecutive steps at a time, so every step reads one contiguous
    block.
    """
    if len(shards) != len(seeds):
        raise ValueError(f"{len(shards)} shards but {len(seeds)} seeds")
    width = model_dim(dataset.n_features)
    if np.shape(start) != (width,):
        raise ValueError(f"start has dim {np.size(start)}, model needs {width}")
    idx = [np.asarray(shard, dtype=np.int64) for shard in shards]
    if any(shard.size == 0 for shard in idx):
        raise ValueError("client has no training samples")
    if not idx:
        return np.empty((0, width))
    step, lr = spec.batch_size, spec.learning_rate
    sizes = np.array([shard.size for shard in idx], dtype=np.int64)
    # clients ordered by full-batch count, descending: those with a k-th full batch are a prefix
    order = np.argsort(-(sizes // step), kind="stable")
    sizes = sizes[order]
    full = sizes // step
    tail = sizes % step
    offsets = np.cumsum(sizes) - sizes
    active = [int(np.count_nonzero(full > k)) for k in range(int(full[0]))]
    tails = [(int(t), np.flatnonzero(tail == t)) for t in np.unique(tail[tail > 0])]
    # stacked steps in training order, as (clients updated, client count, batch length)
    steps = [(slice(0, a), a, step) for a in active] + [(members, members.size, t) for t, members in tails]
    # where each step's rows sit in `epoch`, laid out step after step: batch k of clients 0..active[k]-1
    # (clients with a k-th full batch are a prefix), then each partial-batch group
    k_of = np.repeat(np.arange(len(active)), active)
    client_of = np.concatenate([np.arange(a) for a in active] or [np.zeros(0, dtype=np.int64)])
    layout = np.concatenate(
        [((offsets[client_of] + k_of * step)[:, None] + np.arange(step)).ravel()]
        + [(offsets[members, None] + full[members, None] * step + np.arange(t)).ravel() for t, members in tails]
    )
    # consecutive steps share one gather into `rows`, of at most max(_GATHER_ROWS, one step) rows
    limit = max(_GATHER_ROWS, max(clients * length for _, clients, length in steps))
    chunks: list[tuple[int, int, list]] = []  # (first row, end row, steps) of each gather
    lo = hi = 0
    group: list = []
    for s in steps:
        if group and hi + s[1] * s[2] - lo > limit:
            chunks.append((lo, hi, group))
            lo, group = hi, []
        group.append(s)
        hi += s[1] * s[2]
    chunks.append((lo, hi, group))
    rngs = [np.random.default_rng(seeds[i]) for i in order]
    w = np.tile(start, (len(idx), 1))
    rows = np.ones((max(hi - lo for lo, hi, _ in chunks), width))  # last column stays the bias input
    epoch = np.empty(int(sizes.sum()), dtype=np.int64)  # dataset row ids, each client's in its shuffled order
    for _ in range(spec.local_epochs):
        for i, rng, lo in zip(order, rngs, offsets):
            epoch[lo : lo + idx[i].size] = idx[i][rng.permutation(idx[i].size)]
        for lo, hi, group in chunks:
            ids = epoch[layout[lo:hi]]
            rows[: hi - lo, :-1] = np.take(dataset.features, ids, axis=0)
            labels = dataset.labels[ids]
            at = 0
            for members, clients, length in group:
                n = clients * length
                batch = rows[at : at + n].reshape(clients, length, -1)
                w[members] -= lr * gradient(w[members], batch, labels[at : at + n].reshape(clients, length))
                at += n
    trained = np.empty_like(w)
    trained[order] = w
    diverged = np.flatnonzero(~np.isfinite(trained).all(axis=1))
    if diverged.size:
        raise DivergedError(int(diverged[0]))
    return trained


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
    cohort: Cohort | None = None,
) -> np.ndarray:
    """One client's weights after mini-batch descent from `start` on the rows `indices`.

    Without `cohort` the client trains alone. As a member of `cohort` it trains
    in lockstep with the other members (see `Cohort`). The weights are the
    same bytes either way.
    """
    if cohort is None:
        return train_clients(start, spec, dataset, [indices], [seed])[0]
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

    An honest client reports utility as the summed per-parameter norm of its
    weight change, sum_k |trained_k - received_k|, and energy as
    alpha * sample_count + beta * param_count, which the edge can reproduce
    exactly from the same inputs. A client named in `adversaries` distorts its
    report (or weights) as assigned; a noise_weights client draws its noise
    from `rng_for(client_id)`.
    """
    trained = np.asarray(trained, dtype=np.float64)
    utility = l2_diff_norm(trained, received)
    energy = spec.energy_alpha * np.asarray(sample_counts, dtype=np.int64) + spec.energy_beta * len(received)
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
