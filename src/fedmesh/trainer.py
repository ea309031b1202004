"""Local training of the reference model and the reports clients upload.

The model is logistic regression on the raw features with a bias term folded
into the parameter vector (P = n_features + 1); it reads a dataset's
bias-augmented rows (`Dataset.rows`, the features then 1.0), in training and
in evaluation alike. `train_clients` trains many clients in lockstep, and
`build_report` assembles an edge's uploads (`ClientReports`), which adversaries
may distort; selection and aggregation see only flat weight vectors.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
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


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function with the logit clipped to [-500, 500], into `out` (which may be `z`) or one new array."""
    p = np.maximum(z, -500.0, out=out)
    np.minimum(p, 500.0, out=p)
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    return np.reciprocal(p, out=p)


def predict_proba(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positive-class probability for each bias-augmented row (its features, then 1.0; see `Dataset.rows`)."""
    if np.shape(weights) != rows.shape[1:]:
        raise ValueError(f"expected {rows.shape[1]} parameters, got shape {np.shape(weights)}")
    return sigmoid(rows @ weights)


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


class DivergedError(ValueError):
    """Training left a client's weights non-finite; `index` is its position in the shard list."""

    def __init__(self, index: int):
        super().__init__(f"trained weights of shard {index} are not finite")
        self.index = index


@functools.lru_cache(maxsize=4)
def _schedule(sizes: tuple[int, ...], step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, tuple]:
    """The stacked steps of one epoch for shards of these sizes at batch size `step`, made once per run.

    The clients train in descending order of their full-batch count, so every
    full-batch step's clients are a prefix of that order. Returns, in that
    order: `order` (each client's shard position), `sizes` and `offsets` (where
    each client's rows sit in an epoch's row order); `positions`, the epoch
    positions of every step's batch rows, step after step; the most rows a
    gather takes; and the gathers, each its span of `positions` and its steps,
    as (clients, start in the gather, client count, batch length), where
    clients is a prefix slice or the ids of a final partial batch's clients.
    Every array is read-only: the same schedule serves every call with these
    sizes.
    """
    step = min(step, max(sizes) + 1)  # any larger batch is every shard as one partial batch
    sizes = np.array(sizes)
    order = np.argsort(-(sizes // step), kind="stable")
    sizes = sizes[order]
    offsets = np.cumsum(sizes) - sizes
    full, tail = sizes // step, sizes % step
    # every client's k-th full batch, then the final partial batches, one step per distinct length
    batches = [(full > k, offsets + k * step, step) for k in range(int(full.max()))]
    batches += [(tail == t, offsets + full * step, int(t)) for t in np.flatnonzero(np.bincount(tail)[1:]) + 1]
    steps = []
    for mask, first, n in batches:
        clients = np.flatnonzero(mask)
        clients.setflags(write=False)
        prefix = clients[-1] == clients.size - 1
        steps.append((slice(0, clients.size) if prefix else clients, (first[clients, None] + np.arange(n)).ravel(), n))
    # consecutive steps share one gather of at most `cap` rows
    cap = max(rows.size for _, rows, _ in steps)
    gathers, used, lo = [], cap, 0
    for clients, rows, n in steps:
        if used + rows.size > cap:
            gathers.append((lo, []))
            used = 0
        gathers[-1][1].append((clients, used, rows.size // n, n))
        used += rows.size
        lo += rows.size
    positions = np.concatenate([rows for _, rows, _ in steps])
    spans = [first for first, _ in gathers[1:]] + [positions.size]
    gathers = tuple((slice(first, end), tuple(group)) for (first, group), end in zip(gathers, spans))
    for array in (order, sizes, offsets, positions):
        array.setflags(write=False)
    return order, sizes, offsets, positions, cap, gathers


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
    `permutation` per epoch. The step schedule depends only on the shard sizes
    and the batch size, so it is made once per run (`_schedule`, memoized).
    Consecutive steps share one `take` of their bias-augmented rows from
    `dataset.rows` into a row buffer; each step then runs in views of buffers
    made once per call, and updates its clients' weights in place, a prefix
    of the stacked weights (a final partial batch's clients are gathered and
    scattered back).
    """
    if len(shards) != len(seeds):
        raise ValueError(f"{len(shards)} shards but {len(seeds)} seeds")
    width = dataset.rows.shape[1]
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
    order, sizes, offsets, positions, cap, gathers = _schedule(tuple(shard.size for shard in shards), spec.batch_size)
    ids = np.concatenate([shards[i] for i in order], dtype=np.int64)  # the client at order[j] at offsets[j]
    if ids.min() < 0 or ids.max() >= dataset.n_samples:
        bad = np.flatnonzero((ids < 0) | (ids >= dataset.n_samples))
        i = order[np.searchsorted(offsets + sizes, bad, "right")].min()
        raise ValueError(f"shard {i} has row ids outside [0, {dataset.n_samples})")
    epochs = np.tile(ids, (spec.local_epochs, 1))  # row e: every client's rows in its epoch-e order
    del ids  # the training loop's peak memory holds only the epochs' copies
    for seed, lo, hi in zip([seeds[i] for i in order], offsets.tolist(), (offsets + sizes).tolist()):
        block = epochs[:, lo:hi]
        np.random.default_rng(seed).permuted(block, axis=1, out=block)
    for epoch in epochs:  # then in the order the gathers take them
        epoch[...] = epoch[positions]
    lr = spec.learning_rate
    w = np.tile(start, (len(shards), 1))
    # the buffers, and per gather its views of them and per step: the clients whose weights it gathers
    # (None for a prefix, which it updates in place), their weights as rows and as columns, the batch
    # and its transpose, its labels, residual and gradient as columns and as rows, and its length
    rows, labels, residual = np.empty((cap, width)), np.empty(cap), np.empty(cap)
    grad, gathered = np.empty((len(shards), width, 1)), np.empty((len(shards), width))
    plan = []
    for span, group in gathers:
        views = []
        for clients, first, count, n in group:
            at = slice(first, first + count * n)
            batch = rows[at].reshape(count, n, width)
            prefix = isinstance(clients, slice)
            own = w[clients] if prefix else gathered[:count]
            views.append((
                None if prefix else clients, own, own[..., None], batch, batch.transpose(0, 2, 1),
                labels[at].reshape(count, n, 1), residual[at].reshape(count, n, 1), grad[:count], grad[:count, :, 0], n,
            ))
        taken = span.stop - span.start
        plan.append((span, rows[:taken], labels[:taken], views))
    for epoch in epochs:
        for span, rows_, labels_, views in plan:
            batch_ids = epoch[span]
            # the ids are range-checked above: "clip" never clips, it skips take's bounds checks
            dataset.rows.take(batch_ids, axis=0, out=rows_, mode="clip")
            labels_[...] = dataset.labels[batch_ids]
            for clients, own, column, batch, batch_t, y, r, g, step_grad, n in views:
                if clients is not None:
                    w.take(clients, axis=0, out=own, mode="clip")
                np.matmul(batch, column, out=r)
                sigmoid(r, out=r)
                r -= y
                np.matmul(batch_t, r, out=g)
                g /= n
                g *= lr
                own -= step_grad
                if clients is not None:
                    w[clients] = own
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
