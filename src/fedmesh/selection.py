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

from .params import ParamVector, l2_diff_norm
from .trainer import DEFAULT_ENERGY_ALPHA, DEFAULT_ENERGY_BETA, ClientReport

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
    energy_alpha: float = DEFAULT_ENERGY_ALPHA
    energy_beta: float = DEFAULT_ENERGY_BETA
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


def estimate_metrics(
    report: ClientReport,
    edge_weights: ParamVector,
    alpha: float = DEFAULT_ENERGY_ALPHA,
    beta: float = DEFAULT_ENERGY_BETA,
) -> tuple[float, float]:
    """Edge's own estimate of a client's utility and energy.

    Utility is the summed per-parameter norm between the uploaded weights and
    the edge model the client trained from; energy is the sample/model-size
    surrogate alpha * N_i + beta * P.
    """
    utility = l2_diff_norm(report.weights, edge_weights)
    energy = alpha * report.sample_count + beta * report.weights.dim
    return utility, energy


def consistency_check(reported: float, estimated: float) -> float:
    """Bounded discrepancy |x/(1+x) - y/(1+y)| in [0, 1); 0 iff the values agree."""
    if reported < 0 or estimated < 0:
        raise ValueError("consistency_check requires nonnegative inputs")
    return abs(reported / (1.0 + reported) - estimated / (1.0 + estimated))


def score(eval_metrics: tuple[float, float, float], weights: ScoreWeights) -> float:
    """Ranking score w1*U - w2*E + w3*S; higher is better."""
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
    if not evaluations:
        raise ValueError("grid_search_init requires at least one evaluation")
    best: ScoreWeights | None = None
    best_objective = -math.inf
    for candidate in simplex_grid(grid_step):  # enumeration order is lexicographic
        scores = np.array([score(m, candidate) for m in evaluations])
        objective = float(scores.mean() - scores.std())
        if objective > best_objective:
            best_objective = objective
            best = candidate
    assert best is not None
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
    reports: Sequence[ClientReport],
    edge_weights: ParamVector,
    weights: ScoreWeights,
    config: SelectionConfig,
) -> tuple[list[int], list[ClientEvaluation]]:
    """Two-step filtering then top-k ranking of the edge's clients.

    Step 1 drops clients whose reported metrics disagree with the edge's own
    estimates beyond the consistency threshold. Step 2 drops clients whose
    score is a two-sided z-outlier among the remaining pool (skipped for pools
    smaller than 4). Survivors are ranked by score descending with client id
    as the tie-break; all evaluations are returned for auditing.
    """
    if not reports:
        raise ValueError("select_clients requires at least one report")

    evaluations = []
    for report in sorted(reports, key=lambda r: r.client_id):
        est_u, est_e = estimate_metrics(report, edge_weights, config.energy_alpha, config.energy_beta)
        delta_u = consistency_check(report.reported_utility, est_u)
        delta_e = consistency_check(report.reported_energy, est_e)
        ev = ClientEvaluation(
            client_id=report.client_id,
            estimated_utility=est_u,
            estimated_energy=est_e,
            security_index=report.security_index,
            delta_u=delta_u,
            delta_e=delta_e,
            score=score((est_u, est_e, report.security_index), weights),
        )
        if max(delta_u, delta_e) > config.consistency_threshold:
            ev.flags.add(FLAG_INCONSISTENT)
        evaluations.append(ev)

    survivors = [ev for ev in evaluations if FLAG_INCONSISTENT not in ev.flags]
    if len(survivors) >= _MIN_POOL_FOR_OUTLIERS:
        scores = np.array([ev.score for ev in survivors])
        std = float(scores.std())
        if std > 0.0:
            mean = float(scores.mean())
            for ev in survivors:
                if abs(ev.score - mean) / std > config.outlier_z_threshold:
                    ev.flags.add(FLAG_SCORE_OUTLIER)
        survivors = [ev for ev in survivors if FLAG_SCORE_OUTLIER not in ev.flags]

    ranked = sorted(survivors, key=lambda ev: (-ev.score, ev.client_id))
    selected = [ev.client_id for ev in ranked[: config.capacity_k]]
    return selected, evaluations
