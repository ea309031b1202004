"""Full simulation loop: distribute, train, report, select, securely aggregate,
exchange across edges, centrally aggregate, evaluate.

Every source of randomness is drawn from a seed derived per (purpose, round,
actor id), so runs reproduce bit-for-bit and injecting an edge failure leaves
all earlier rounds byte-identical. The central aggregation step only receives
edge-level updates; client reports and raw client weights never cross that
boundary (see _central_step).
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np

from . import secagg, selection, trainer
from .aggregation import CrossEdgeConfig, EdgeUpdate, central_aggregate, cross_edge_exchange
from .data import DataConfig, Dataset, partition_noniid, shift_features, split
from .metrics import BinaryMetrics, RoundRecord, binary_metrics, jain_fairness
from .params import ParamVector, check_field_types
from .secagg import FixedPointCodec, SecAggConfig
from .selection import ScoreWeights, SelectionConfig
from .trainer import AdversaryAssignment, ClientReports, TrainerConfig

logger = logging.getLogger(__name__)

MODES = ("fedselect_me", "fedavg_single", "no_selection")


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed for one purpose, independent of call order."""
    digest = hashlib.sha256(repr((master,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SimulationConfig:
    n_edges: int = 5
    clients_per_edge: int = 4
    rounds_max: int = 10
    patience: int = 3
    min_delta: float = 1e-4
    seed: int = 0
    baseline_mode: str = "fedselect_me"
    decision_threshold: float = 0.5
    adversaries: tuple[AdversaryAssignment, ...] = ()
    edge_failures: tuple[tuple[int, int], ...] = ()  # (edge_id, round), rounds 1-based
    security_overrides: Mapping[int, float] = field(default_factory=dict, hash=False)  # a dict; == still compares it
    data: DataConfig = field(default_factory=DataConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    secagg: SecAggConfig = field(default_factory=SecAggConfig)
    aggregation: CrossEdgeConfig = field(default_factory=CrossEdgeConfig)

    @property
    def n_clients(self) -> int:
        return self.n_edges * self.clients_per_edge

    @property
    def edge_clients(self) -> tuple[range, ...]:
        """The clients of each edge, entry e for edge e: client c sits on edge
        c // clients_per_edge, or on the one virtual edge 0 under fedavg_single."""
        if self.baseline_mode == "fedavg_single":
            return (range(self.n_clients),)
        k = self.clients_per_edge
        return tuple(range(e * k, (e + 1) * k) for e in range(self.n_edges))

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_edges < 1:
            raise ValueError("n_edges: must be >= 1")
        if self.clients_per_edge < 1:
            raise ValueError("clients_per_edge: must be >= 1")
        if self.rounds_max < 1:
            raise ValueError("rounds_max: must be >= 1")
        if self.patience < 1:
            raise ValueError("patience: must be >= 1")
        if not self.min_delta >= 0:
            raise ValueError("min_delta: must be >= 0")
        if self.baseline_mode not in MODES:
            raise ValueError(f"baseline_mode: must be one of {MODES}")
        adversary_ids = [adv.client_id for adv in self.adversaries]
        for i, cid in enumerate(adversary_ids):
            if not 0 <= cid < self.n_clients:
                raise ValueError(f"adversaries: client_id {cid} out of range")
            if cid in adversary_ids[:i]:
                raise ValueError(f"adversaries: client_id {cid} is given twice")
        for edge_id, round_no in self.edge_failures:
            if not 0 <= edge_id < self.n_edges:
                raise ValueError(f"edge_failures: edge_id {edge_id} out of range")
            if round_no < 1:
                raise ValueError("edge_failures: round must be >= 1")
        if self.edge_failures and self.baseline_mode == "fedavg_single":
            raise ValueError("edge_failures: not applicable with a single virtual edge")
        for cid, s in self.security_overrides.items():
            if not 0 <= cid < self.n_clients:
                raise ValueError(f"security_overrides: client_id {cid} out of range")
            if not 0.0 <= s <= 1.0:
                raise ValueError("security_overrides: values must lie in [0, 1]")
        if self.data.unknown_edge is not None and not 0 <= self.data.unknown_edge < self.n_edges:
            raise ValueError("data.unknown_edge: out of range")


@dataclass(frozen=True)
class SelectionEvent:
    """One edge's selection decision in one round. The field names are the
    line's JSON keys; the flagged clients are read off the evaluations."""

    round: int
    edge: int
    mode: str
    score_weights: tuple[float, float, float] | None  # the weights the scores used
    selected: tuple[int, ...]  # best score first under fedselect_me, else in id order
    evaluations: tuple[selection.ClientEvaluation, ...]
    type: Literal["selection"] = "selection"  # an instance attribute, so vars() writes it
    flagged_inconsistent: tuple[int, ...] = field(init=False)
    flagged_score_outlier: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        for flag in (selection.FLAG_INCONSISTENT, selection.FLAG_SCORE_OUTLIER):
            flagged = tuple(ev.client for ev in self.evaluations if flag in ev.flags)
            object.__setattr__(self, f"flagged_{flag}", flagged)


@dataclass(frozen=True)
class EdgeFailureEvent:
    """An edge that failed in a round and contributed nothing to it."""

    round: int
    edge: int
    type: Literal["edge_failure"] = "edge_failure"


@dataclass
class SimulationResult:
    rounds: list[RoundRecord]
    final_global: np.ndarray
    stopped_early: bool
    events: list[SelectionEvent | EdgeFailureEvent]


def evaluate(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> BinaryMetrics:
    """Evaluate a parameter vector as the reference model on a labeled set."""
    return binary_metrics(trainer.predict_proba(weights, features), labels, threshold)


def _edge_mean_update(
    cfg: SecAggConfig,
    codec: FixedPointCodec,
    keypair: tuple[secagg.PaillierPublicKey, secagg.PaillierPrivateKey] | None,
    deltas: np.ndarray,
    weights: Sequence[int],
    noise_seed: int,
) -> np.ndarray:
    """Release sum_i w_i * delta_i / sum_i w_i, one client update per row,
    encrypted under the edge's keypair; with secagg off (keypair None) the
    same quantized ints are summed in plaintext. A secagg.HeadroomError names
    the refused row."""
    if keypair is None:
        total = secagg.sum_quantized(deltas, codec, cfg.key_bits, weights)
        return secagg.release(total, sum(weights), cfg, noise_seed)
    public_key, private_key = keypair
    ciphers = []
    for row, d in enumerate(deltas):
        try:
            ciphers.append(secagg.encrypt_update(ParamVector(d), codec, public_key))
        except secagg.HeadroomError as exc:
            raise secagg.HeadroomError(str(exc), row) from exc
    agg = secagg.aggregate_encrypted(ciphers, public_key, codec, weights)
    return secagg.finalize_edge_update(agg, private_key, codec, sum(weights), cfg, noise_seed)


def _central_step(
    edge_updates: Sequence[EdgeUpdate], cross_config: CrossEdgeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-edge exchange plus central aggregation of `edge_updates`, given in
    ascending edge id: the global model and the edges' blended models, one row each.

    This is the only path to the global model; it accepts edge-level updates
    exclusively, which is what keeps client reports out of the central tier.
    """
    cross = cross_edge_exchange(edge_updates, cross_config)
    counts = [u.sample_count for u in edge_updates]
    return central_aggregate(cross, counts), cross


@dataclass
class PreparedData:
    """Splits and per-client shards as the round loop sees them: client c trains on the
    rows client_train[c] of `data`, and edge e is tested on its rows edge_test_rows[e].
    `data` is the caller's dataset itself, or with an unknown edge its copy with that
    edge's training rows shifted; d_val and d_test copy the unshifted rows."""

    data: Dataset
    d_val: Dataset
    d_test: Dataset
    client_train: list[np.ndarray]
    edge_test_rows: list[np.ndarray]


def hold_out(rows: np.ndarray, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One client's (training, test) rows, each sorted, from its rows shuffled by `rng`.

    A fraction of 0, or a client with fewer than 2 rows, holds nothing out;
    any other fraction holds out round(fraction * n) rows, but at least one
    and never all n.
    """
    perm = rng.permutation(rows)
    n = len(perm)
    test_n = 0 if n < 2 or fraction == 0 else min(n - 1, max(1, round(fraction * n)))
    return np.sort(perm[test_n:]), np.sort(perm[:test_n])


def prepare_data(config: SimulationConfig, dataset: Dataset) -> PreparedData:
    """Split, partition, and shard the dataset exactly as run() will."""
    seed = config.seed
    train_rows, val_rows, test_rows = split(dataset, config.data, derive_seed(seed, "split"))
    client_rows = partition_noniid(
        dataset, train_rows, config.n_clients, config.data.dirichlet_alpha, derive_seed(seed, "partition")
    )
    data = dataset
    if config.data.unknown_edge is not None:
        # the unknown region is one physical edge's clients, also under fedavg_single
        k = config.clients_per_edge
        first = config.data.unknown_edge * k
        data = shift_features(dataset, np.concatenate(client_rows[first : first + k]), config.data.unknown_shift)

    # per-client holdout feeding the edge-level test shards
    holdouts = [
        hold_out(rows, config.data.edge_test_fraction, np.random.default_rng(derive_seed(seed, "shard", cid)))
        for cid, rows in enumerate(client_rows)
    ]
    edge_test_rows = [np.concatenate([holdouts[c][1] for c in clients]) for clients in config.edge_clients]
    return PreparedData(
        data=data,
        d_val=dataset.subset(val_rows),
        d_test=dataset.subset(test_rows),
        client_train=[train for train, _ in holdouts],
        edge_test_rows=edge_test_rows,
    )


def run(config: SimulationConfig, dataset: Dataset) -> SimulationResult:
    """Execute the simulation and return per-round records plus the event log."""
    seed = config.seed
    threshold = config.decision_threshold

    prep = prepare_data(config, dataset)
    data, d_val, d_test = prep.data, prep.d_val, prep.d_test
    client_train, edge_test_rows = prep.client_train, prep.edge_test_rows
    edge_clients = config.edge_clients
    edges = range(len(edge_clients))
    single_edge = config.baseline_mode == "fedavg_single"

    spec = config.trainer
    security = [
        config.security_overrides.get(cid, config.selection.default_security_index) for cid in range(config.n_clients)
    ]

    total_train = sum(len(rows) for rows in client_train)
    codec = FixedPointCodec(
        scale=config.secagg.scale,
        max_participants=total_train + len(client_train) + 2,
    )
    global_model = np.zeros(trainer.model_dim(dataset.n_features))
    score_weights: list[ScoreWeights | None] = [None] * len(edge_clients)

    rounds: list[RoundRecord] = []
    events: list[SelectionEvent | EdgeFailureEvent] = []
    best_val = math.inf
    non_improving = 0
    stopped_early = False

    # an edge encrypts one packed update per aggregated client in a round: all its clients under
    # no_selection, else at most capacity_k; a key's worker makes that many for every round
    slots, _ = codec.layout(config.secagg.key_bits)
    aggregated = max(map(len, edge_clients))
    if config.baseline_mode != "no_selection":
        aggregated = min(aggregated, config.selection.capacity_k)
    per_round = aggregated * -(-len(global_model) // slots)
    key_seeds = [derive_seed(seed, "keys", e) for e in edges] if config.secagg.enabled else []
    with secagg.edge_keys(config.secagg.key_bits, key_seeds, config.rounds_max * per_round) as keypairs:
        for round_no in range(1, config.rounds_max + 1):
            alive = [e for e in edges if (e, round_no) not in config.edge_failures]
            events += [EdgeFailureEvent(round_no, e) for e in edges if e not in alive]
            if not alive:
                raise RuntimeError(f"all edges failed in round {round_no}")

            # the clients of every alive edge train as one lockstep cohort, stacked one row each; under
            # fedavg_single only the round's sample trains, as no other client's weights are used and
            # none depends on who trains beside it
            members = [_fedavg_sample(config, round_no)] if single_edge else edge_clients
            cids = [cid for e in alive for cid in members[e]]
            train_seeds = [derive_seed(seed, "train", round_no, cid) for cid in cids]
            cohort = trainer.Cohort(global_model, spec, data, [client_train[cid] for cid in cids], train_seeds)
            try:
                trained = np.stack(
                    [
                        trainer.train_local(global_model, spec, data, client_train[cid], s, cohort)
                        for cid, s in zip(cids, train_seeds)
                    ]
                )
            except trainer.DivergedError as exc:
                raise ValueError(
                    f"round {round_no}, client {cids[exc.index]}: trained weights are not finite"
                    f" (trainer.learning_rate={spec.learning_rate})"
                ) from exc

            edge_updates: list[EdgeUpdate] = []
            first_row = 0
            for e in alive:
                ids = members[e]  # ascending, so a client's report row is found by searchsorted
                reports = trainer.build_report(
                    ids,
                    trained[first_row : first_row + len(ids)],
                    global_model,
                    spec,
                    [len(client_train[cid]) for cid in ids],
                    [security[cid] for cid in ids],
                    config.adversaries,
                    lambda cid: np.random.default_rng(derive_seed(seed, "behavior", round_no, cid)),
                )
                first_row += len(ids)

                try:
                    selected_ids, evaluations, weights_used, score_weights[e] = _select_for_mode(
                        config, reports, global_model, score_weights[e]
                    )
                except selection.NonFiniteMetric as exc:
                    raise ValueError(
                        f"round {round_no}, client {exc.client_id}: {exc.detail}"
                        f" (trainer.learning_rate={spec.learning_rate})"
                    ) from exc
                events.append(
                    SelectionEvent(round_no, e, config.baseline_mode, weights_used, tuple(selected_ids), evaluations)
                )

                if not selected_ids:
                    logger.warning("round %d edge %d: no clients selected, edge skipped", round_no, e)
                    continue
                rows = np.searchsorted(reports.client_ids, selected_ids)
                counts = reports.sample_count[rows]
                try:
                    mean_update = _edge_mean_update(
                        config.secagg,
                        codec,
                        keypairs[e]() if keypairs else None,
                        reports.weights[rows] - global_model,
                        counts.tolist() if single_edge else [1] * len(selected_ids),
                        derive_seed(seed, "dp", round_no, e),
                    )
                except secagg.HeadroomError as exc:
                    raise OverflowError(f"round {round_no}, edge {e}, client {selected_ids[exc.row]}: {exc}") from exc
                local_model = ParamVector(global_model + mean_update)
                edge_updates.append(EdgeUpdate(edge_id=e, local_model=local_model, sample_count=int(counts.sum())))

            if not edge_updates:
                raise RuntimeError(f"no edge produced an update in round {round_no}")
            new_global, cross = _central_step(edge_updates, config.aggregation)

            per_edge: dict[int, BinaryMetrics] = {}
            for update, model in zip(edge_updates, cross):  # both in ascending edge id
                rows = edge_test_rows[update.edge_id]
                if len(rows) > 0:
                    per_edge[update.edge_id] = evaluate(model, data.features[rows], data.labels[rows], threshold)
            val = evaluate(new_global, d_val.features, d_val.labels, threshold)
            test = evaluate(new_global, d_test.features, d_test.labels, threshold)
            accuracies = [m.accuracy for m in per_edge.values()]
            jfi = jain_fairness(accuracies)
            rounds.append(RoundRecord(round=round_no, val=val, test=test, per_edge=per_edge, jfi=jfi))
            global_model = new_global

            if val.loss < best_val - config.min_delta:
                best_val = val.loss
                non_improving = 0
            else:
                non_improving += 1
                if non_improving >= config.patience:
                    stopped_early = round_no < config.rounds_max
                    break

    return SimulationResult(rounds=rounds, final_global=global_model, stopped_early=stopped_early, events=events)


def _fedavg_sample(config: SimulationConfig, round_no: int) -> list[int]:
    """The clients that fedavg_single samples for a round, ascending: up to
    capacity_k of all clients, uniformly without replacement."""
    k = min(config.selection.capacity_k, config.n_clients)
    rng = np.random.default_rng(derive_seed(config.seed, "sample", round_no))
    return sorted(int(c) for c in rng.choice(range(config.n_clients), size=k, replace=False))


def _select_for_mode(
    config: SimulationConfig,
    reports: ClientReports,
    edge_model: np.ndarray,
    weights: ScoreWeights | None,
) -> tuple[list[int], tuple[selection.ClientEvaluation, ...], tuple[float, float, float] | None, ScoreWeights | None]:
    """One edge's selection in a round: the selected ids, the evaluations, the
    score weights they used and the edge's weights for its next selection.

    Under fedselect_me an edge's weights start from the grid search on its first
    selection's estimates, then move toward each selection's evaluation means;
    the other modes take every reporting client and keep no weights.
    """
    if config.baseline_mode != "fedselect_me":  # fedavg_single reports its round's sample alone
        return reports.client_ids.tolist(), (), None, None

    spec = config.trainer
    if weights is None:
        utility, energy = selection.estimate_metrics(reports, edge_model, spec)
        triples = np.column_stack([utility, energy, reports.security_index])
        weights = selection.grid_search_init(triples, config.selection)
    selected, evaluations = selection.select_clients(reports, edge_model, weights, config.selection, spec)
    means = (
        float(np.mean([ev.estimated_utility for ev in evaluations])),
        float(np.mean([ev.estimated_energy for ev in evaluations])),
        float(np.mean([ev.security_index for ev in evaluations])),
    )
    return selected, evaluations, weights.as_tuple(), selection.update_weights(weights, means, config.selection)
