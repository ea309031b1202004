"""Edge-side client evaluation and two-step top-k selection.

Pipeline per round and edge: estimate each client's utility/energy from its
uploaded weights, compare against the self-reported values through a bounded
consistency check, drop inconsistent clients, score the survivors, drop score
outliers, then keep the k best. Score weights live on the probability simplex
and adapt round over round toward the observed metric mix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .trainer import DEFAULT_ENERGY_ALPHA, DEFAULT_ENERGY_BETA, ClientReports, l2_diff_norm

logger = logging.getLogger(__name__)

FLAG_INCONSISTENT = "inconsistent"
FLAG_SCORE_OUTLIER = "score_outlier"

# z-scores over fewer survivors than this are too unstable to act on
_MIN_POOL_FOR_OUTLIERS = 4


@dataclass(frozen=True)
class ScoreWeights:
    """Priority weights (utility, energy, security) on the probability simplex."""

    w_utility: float
    w_energy: float
    w_security: float

    def __post_init__(self) -> None:
        for w in (self.w_utility, self.w_energy, self.w_security):
            if not 0.0 <= w <= 1.0 + 1e-12:
                raise ValueError(f"score weight out of [0, 1]: {w}")
        total = self.w_utility + self.w_energy + self.w_security
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"score weights must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_utility, self.w_energy, self.w_security)


@dataclass
class ClientEvaluation:
    """Audit record of one client's evaluation, kept even when excluded."""

    client_id: int
    estimated_utility: float
    estimated_energy: float
    security_index: float
    delta_u: float
    delta_e: float
    score: float
    flags: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class SelectionConfig:
    capacity_k: int = 50
    consistency_threshold: float = 0.15
    outlier_z_threshold: float = 2.5
    eta: float = 0.1
    grid_step: float = 0.1
    default_security_index: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_k < 1:
            raise ValueError(f"capacity_k must be >= 1, got {self.capacity_k}")
        if not 0.0 < self.consistency_threshold < 1.0:
            raise ValueError("consistency_threshold must lie in (0, 1)")
        if not self.outlier_z_threshold > 0:
            raise ValueError("outlier_z_threshold must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.grid_step <= 0 or abs(1.0 / self.grid_step - round(1.0 / self.grid_step)) > 1e-9:
            raise ValueError(f"grid_step must evenly divide 1, got {self.grid_step}")
        if not 0.0 <= self.default_security_index <= 1.0:
            raise ValueError("default_security_index must lie in [0, 1]")


class NonFiniteMetric(ValueError):
    """A client's utility or energy, or the edge's running sum of one, is not finite."""

    def __init__(self, client_id: int, detail: str):
        super().__init__(f"client {client_id}: {detail}")
        self.client_id = client_id
        self.detail = detail


def _require_finite(client_ids: np.ndarray, quantity: str, values: np.ndarray, summed: bool = False) -> None:
    """Refuse the first client whose value is not finite or, when the edge
    averages the values (`summed`), whose addition takes their running sum out
    of range."""
    finite = np.isfinite(np.cumsum(values) if summed else values)
    if not finite.all():
        k = int(np.argmin(finite))
        detail = "is not finite" if not math.isfinite(values[k]) else f"makes the edge's total {quantity} overflow"
        raise NonFiniteMetric(int(client_ids[k]), f"{quantity} {values[k]} {detail}")


def estimate_metrics(
    reports: ClientReports,
    edge_weights: np.ndarray,
    alpha: float = DEFAULT_ENERGY_ALPHA,
    beta: float = DEFAULT_ENERGY_BETA,
) -> tuple[np.ndarray, np.ndarray]:
    """Edge's own estimate of each client's utility and energy, row by row.

    Utility is the summed per-parameter norm between the uploaded weights and
    the edge model the client trained from; energy is the sample/model-size
    surrogate alpha * N_i + beta * P. Both must stay finite, summed over the
    edge's clients too (NonFiniteMetric names the client otherwise).
    """
    utility = l2_diff_norm(reports.weights, edge_weights)
    energy = alpha * reports.sample_count + beta * len(edge_weights)
    _require_finite(reports.client_ids, "estimated utility", utility, summed=True)
    _require_finite(reports.client_ids, "estimated energy", energy, summed=True)
    return utility, energy


def consistency_check(reported, estimated):
    """Bounded discrepancy |x/(1+x) - y/(1+y)| in [0, 1), elementwise; 0 iff the values agree."""
    if np.any(np.less(reported, 0)) or np.any(np.less(estimated, 0)):
        raise ValueError("consistency_check requires nonnegative inputs")
    delta = abs(reported / (1.0 + reported) - estimated / (1.0 + estimated))
    if np.all(delta):
        return delta
    # distinct but close values can map to one double x/(1+x), so a zero is recomputed as
    # |x-y|/(1+x)/(1+y), the same distance without the cancellation; nonzero results stay as they are
    collided = (delta == 0) & (reported != estimated)
    return np.where(collided, abs(reported - estimated) / (1.0 + reported) / (1.0 + estimated), delta)[()]


def score(eval_metrics, weights: ScoreWeights):
    """Ranking score w1*U - w2*E + w3*S, elementwise; higher is better."""
    u, e, s = eval_metrics
    return weights.w_utility * u - weights.w_energy * e + weights.w_security * s


def simplex_grid(grid_step: float) -> list[ScoreWeights]:
    """All (w1, w2, w3) on the simplex with components multiples of grid_step."""
    steps = 1.0 / grid_step
    m = round(steps)
    if m < 1 or abs(steps - m) > 1e-9:
        raise ValueError(f"grid_step must evenly divide 1, got {grid_step}")
    points = []
    for i in range(m + 1):
        for j in range(m - i + 1):
            k = m - i - j
            points.append(ScoreWeights(i / m, j / m, k / m))
    return points


def grid_search_init(
    evaluations: Sequence[tuple[float, float, float]],
    grid_step: float = 0.1,
) -> ScoreWeights:
    """Pick initial score weights by exhaustive search over the simplex lattice.

    The objective is mean(score) - std(score) across clients: reward overall
    utility while penalizing a scoring that spreads clients far apart. Ties go
    to the lexicographically smallest (w1, w2, w3).
    """
    triples = np.asarray(evaluations, dtype=np.float64).reshape(-1, 3)
    if not triples.size:
        raise ValueError("grid_search_init requires at least one evaluation")
    u, e, s = triples.T
    best: ScoreWeights | None = None
    best_objective = -math.inf
    for candidate in simplex_grid(grid_step):  # enumeration order is lexicographic
        scores = score((u, e, s), candidate)
        objective = float(scores.mean() - scores.std())
        if objective > best_objective:
            best_objective = objective
            best = candidate
    if best is None:
        raise ValueError("grid_search_init: no score weights give a finite objective for these evaluations")
    return best


def update_weights(
    prev: ScoreWeights,
    round_means: tuple[float, float, float],
    eta: float,
) -> ScoreWeights:
    """Move the weights toward the normalized metric means at rate eta.

    w_j <- (1 - eta) * w_j + eta * mean_j / (mean_U + mean_E + mean_S), which
    keeps the output on the simplex for any input on it.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    mu, me, ms = round_means
    if mu < 0 or me < 0 or ms < 0:
        raise ValueError("round means must be nonnegative")
    total = mu + me + ms
    if total == 0.0:
        logger.warning("update_weights: all-zero metric means, keeping previous weights")
        return prev
    if total < np.finfo(np.float64).tiny:
        # subnormal means: eta * mean would underflow, so rescale by an exact power of two
        mu, me, ms = (math.ldexp(m, 600) for m in round_means)
        total = mu + me + ms
    return ScoreWeights(
        (1.0 - eta) * prev.w_utility + eta * mu / total,
        (1.0 - eta) * prev.w_energy + eta * me / total,
        (1.0 - eta) * prev.w_security + eta * ms / total,
    )


def select_clients(
    reports: ClientReports,
    edge_weights: np.ndarray,
    weights: ScoreWeights,
    config: SelectionConfig,
    alpha: float = DEFAULT_ENERGY_ALPHA,
    beta: float = DEFAULT_ENERGY_BETA,
) -> tuple[list[int], list[ClientEvaluation]]:
    """Two-step filtering then top-k ranking of the edge's clients.

    Step 1 drops clients whose reported metrics disagree with the edge's own
    estimates beyond the consistency threshold; the energy estimate uses the
    constants alpha and beta that the clients report with (see
    estimate_metrics). Step 2 drops clients whose score is a two-sided
    z-outlier among the remaining pool (skipped for pools smaller than 4).
    Survivors are ranked by score descending with client id as the
    tie-break; all evaluations, in client id order, are returned for
    auditing. Every metric must be finite (NonFiniteMetric names the client
    otherwise); finite utility and energy keep the score finite.
    """
    if not len(reports.client_ids):
        raise ValueError("select_clients requires at least one report")
    by_id = np.argsort(reports.client_ids, kind="stable")
    ids = reports.client_ids[by_id]
    est_u, est_e = estimate_metrics(reports, edge_weights, alpha, beta)
    est_u, est_e = est_u[by_id], est_e[by_id]
    reported_u, reported_e = reports.reported_utility[by_id], reports.reported_energy[by_id]
    _require_finite(ids, "reported utility", reported_u)
    _require_finite(ids, "reported energy", reported_e)
    security = reports.security_index[by_id]
    delta_u = consistency_check(reported_u, est_u)
    delta_e = consistency_check(reported_e, est_e)
    scores = score((est_u, est_e, security), weights)
    inconsistent = np.maximum(delta_u, delta_e) > config.consistency_threshold

    outlier = np.zeros_like(inconsistent)
    pool = np.flatnonzero(~inconsistent)
    if pool.size >= _MIN_POOL_FOR_OUTLIERS:
        std = float(scores[pool].std())
        if std > 0.0:
            outlier[pool] = np.abs(scores[pool] - float(scores[pool].mean())) / std > config.outlier_z_threshold

    evaluations = [
        ClientEvaluation(
            client_id=cid,
            estimated_utility=u,
            estimated_energy=e,
            security_index=sec,
            delta_u=du,
            delta_e=de,
            score=sc,
            flags={FLAG_INCONSISTENT} if bad else {FLAG_SCORE_OUTLIER} if out else set(),
        )
        for cid, u, e, sec, du, de, sc, bad, out in zip(
            ids.tolist(), est_u.tolist(), est_e.tolist(), security.tolist(), delta_u.tolist(),
            delta_e.tolist(), scores.tolist(), inconsistent.tolist(), outlier.tolist(),
        )
    ]
    survivors = np.flatnonzero(~inconsistent & ~outlier)
    ranked = survivors[np.lexsort((ids[survivors], -scores[survivors]))]
    selected = ids[ranked[: config.capacity_k]].tolist()
    return selected, evaluations
