"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a pytest failure on any test is the corresponding FAIL signal.
"""

import dataclasses
import json

import numpy as np
from scipy import stats

from fedmesh.cli import cmd_run
from fedmesh.data import DataConfig, generate_synthetic
from fedmesh.metrics import jain_fairness
from fedmesh.orchestrator import SimulationConfig, derive_seed, evaluate, prepare_data, run
from fedmesh.aggregation import CrossEdgeConfig, EdgeUpdate, central_aggregate, cross_edge_exchange
from fedmesh.params import ParamVector
from fedmesh.secagg import (
    FixedPointCodec,
    SecAggConfig,
    aggregate_encrypted,
    decrypt_vector,
    encrypt_update,
    keygen,
    release,
)
from fedmesh.selection import ScoreWeights, SelectionConfig, consistency_check, estimate_metrics, score, update_weights
from fedmesh.trainer import AdversaryAssignment, TrainerConfig, build_report, l1_distance, train_clients


def report_pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_jfi_recomputation():
    edge_accuracies = (0.9937605, 0.9914487, 0.994351, 0.9970067, 0.9954772)
    jfi = jain_fairness(edge_accuracies)
    assert abs(jfi - 0.999993) <= 5e-6
    report_pass(1, f"fairness index over published edge accuracies = {jfi:.7f} (target 0.999993 +/- 5e-6)")


def test_criterion_02_equation_oracles():
    rng = np.random.default_rng(2024)
    spec = TrainerConfig()

    # utility: L1 distance vs scalar loop
    for _ in range(100):
        dim = int(rng.integers(1, 21))
        a, b = rng.normal(size=dim), rng.normal(size=dim)
        expected = sum(abs(a[k] - b[k]) for k in range(dim))
        assert abs(l1_distance(a[None], b)[0] - expected) <= 1e-9

    # energy surrogate: alpha * N + beta * P
    for _ in range(100):
        n_i = int(rng.integers(1, 1000))
        alpha, beta = rng.uniform(0.001, 0.1, size=2)
        w = rng.normal(size=11)
        rep = build_report([0], w[None], w, spec, [n_i], [0.5])
        _, energy = estimate_metrics(rep, w, TrainerConfig(energy_alpha=alpha, energy_beta=beta))
        assert abs(energy[0] - (alpha * n_i + beta * 11)) <= 1e-9

    # consistency deltas for utility and energy
    for _ in range(100):
        x, y = rng.uniform(0, 50, size=2)
        expected = abs(x / (1 + x) - y / (1 + y))
        assert abs(consistency_check(x, y) - expected) <= 1e-9

    # weighted score
    for _ in range(100):
        u, e, s = rng.uniform(0, 5, size=3)
        raw = rng.uniform(0.01, 1, size=3)
        w1, w2, w3 = raw / raw.sum()
        got = score((u, e, s), ScoreWeights(w1, w2, w3))
        assert abs(got - (w1 * u - w2 * e + w3 * s)) <= 1e-9

    # per-metric means and the weight update step
    for _ in range(100):
        c = int(rng.integers(1, 11))
        metrics = rng.uniform(0, 4, size=(c, 3))
        means_loop = tuple(sum(metrics[i][j] for i in range(c)) / c for j in range(3))
        means_np = tuple(float(np.mean(metrics[:, j])) for j in range(3))
        assert max(abs(a - b) for a, b in zip(means_loop, means_np)) <= 1e-12
        raw = rng.uniform(0.01, 1, size=3)
        prev = ScoreWeights(*(raw / raw.sum()))
        eta = float(rng.uniform(0, 1))
        got = update_weights(prev, means_loop, SelectionConfig(eta=eta))
        total = sum(means_loop)
        expected = tuple(
            (1 - eta) * p + eta * m / total for p, m in zip(prev.as_tuple(), means_loop)
        )
        assert max(abs(a - b) for a, b in zip(got.as_tuple(), expected)) <= 1e-9

    # cross-edge blend (pure aggregation: 1e-12)
    for _ in range(100):
        n_edges = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 21))
        models = [rng.normal(size=dim) for _ in range(n_edges)]
        counts = [int(c) for c in rng.integers(1, 200, size=n_edges)]
        alpha = float(rng.uniform(0, 1))
        clip_val = 50.0
        out = cross_edge_exchange(
            [EdgeUpdate(i, ParamVector(m), n) for i, (m, n) in enumerate(zip(models, counts))],
            CrossEdgeConfig(alpha=alpha, clip_val=clip_val),
        )
        total = sum(counts)
        for i, model in enumerate(out):
            for k in range(dim):
                if n_edges == 1:
                    acc = models[i][k]
                else:
                    acc = alpha * models[i][k] + sum(
                        (1 - alpha) * counts[j] / (total - counts[i]) * models[j][k]
                        for j in range(n_edges)
                        if j != i
                    )
                acc = min(clip_val, max(-clip_val, acc))
                assert abs(model[k] - acc) <= 1e-12

    # central sample-weighted mean (pure aggregation: 1e-12)
    for _ in range(100):
        n_edges = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 21))
        models = [rng.normal(size=dim) for _ in range(n_edges)]
        counts = [int(c) for c in rng.integers(1, 500, size=n_edges)]
        got = central_aggregate(np.stack(models), counts)
        total = sum(counts)
        for k in range(dim):
            expected = sum(counts[i] * models[i][k] for i in range(n_edges)) / total
            assert abs(got[k] - expected) <= 1e-12

    report_pass(2, "metric, scoring, and aggregation formulas match brute-force loop oracles on 100+ instances each")


def test_criterion_03_simplex_preservation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10_000):
        raw = rng.uniform(0.0, 1.0, size=3) + 1e-9
        prev = ScoreWeights(*(raw / raw.sum()))
        means = tuple(rng.uniform(0.0, 100.0, size=3) + 1e-12)
        eta = float(rng.uniform(0.0, 1.0))
        out = update_weights(prev, means, SelectionConfig(eta=eta))
        worst = max(worst, abs(sum(out.as_tuple()) - 1.0))
    assert worst <= 1e-9
    report_pass(3, f"10000 weight updates stay on the simplex (worst drift {worst:.2e})")


def test_criterion_04_secure_aggregation_homomorphism():
    rng = np.random.default_rng(4)
    scale = 2**20
    codec = FixedPointCodec(scale=scale, max_participants=16)
    public, private = keygen(512, seed=4444)
    distinct_trials = 0
    for trial in range(50):
        count = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 51))
        vectors = [rng.uniform(-5, 5, size=dim) for _ in range(count)]
        ciphers = [encrypt_update(ParamVector(v), codec, public) for v in vectors]
        agg = aggregate_encrypted(ciphers, public, codec, [1] * count)
        decrypted = decrypt_vector(agg, private, codec)
        plain_sum = np.sum(vectors, axis=0)
        assert np.max(np.abs(decrypted - plain_sum)) <= count * 0.5 / scale
        # probabilistic encryption: same plaintext, fresh ciphertexts
        again = encrypt_update(ParamVector(vectors[0]), codec, public)
        if all(a != b for a, b in zip(ciphers[0].ciphertexts, again.ciphertexts)):
            distinct_trials += 1
    assert distinct_trials == 50
    report_pass(4, "50 homomorphic-sum trials within count*0.5/scale; re-encryption distinct in 50/50")


def test_criterion_05_dp_noise_calibration():
    sigma, clip_norm, count = 1.3, 0.7, 9
    # a zero total never reaches the clip, so the released vector is the noise itself
    draws = release(np.zeros(10_000), count, SecAggConfig(clip_val=clip_norm, noise_multiplier=sigma), seed=55)
    target_std = sigma * clip_norm / count
    _, p_value = stats.kstest(draws, "norm", args=(0.0, target_std))
    assert p_value > 0.001
    report_pass(5, f"10000 gaussian draws consistent with N(0, (sigma*C/count)^2), KS p={p_value:.3f}")


def test_criterion_06_adversary_exclusion():
    liars = (2, 9, 15)
    config = SimulationConfig(
        n_edges=2,
        clients_per_edge=10,
        rounds_max=5,
        patience=99,
        seed=23,
        data=DataConfig(n_samples=2000, dirichlet_alpha=0.5),
        secagg=SecAggConfig(enabled=True, key_bits=512, noise_multiplier=0.1, clip_val=1.0),
        adversaries=tuple(AdversaryAssignment(c, "inflate_utility", 5.0) for c in liars),
    )
    dataset = generate_synthetic(config.data, seed=66)
    result = run(config, dataset)
    assert len(result.rounds) == 5
    for round_no in range(1, 6):
        flagged = {
            c
            for event in result.events
            if event.type == "selection" and event.round == round_no
            for c in event.flagged_inconsistent
        }
        assert flagged >= set(liars), f"round {round_no} missed a liar"
    liar_utilities = [
        ev.estimated_utility
        for event in result.events
        if event.type == "selection"
        for ev in event.evaluations
        if ev.client in liars
    ]
    assert min(liar_utilities) >= 0.1  # premise of the detection guarantee
    for event in result.events:
        if event.type == "selection":
            assert not set(liars) & set(event.selected)
    report_pass(6, "3/3 utility-inflating clients flagged inconsistent and excluded in all 5 rounds")


def test_criterion_07_fault_tolerance():
    base = SimulationConfig(
        n_edges=5,
        clients_per_edge=4,
        rounds_max=10,
        patience=99,
        seed=17,
        data=DataConfig(n_samples=3000, dirichlet_alpha=0.5),
        secagg=SecAggConfig(enabled=True, key_bits=512, noise_multiplier=0.1, clip_val=1.0),
    )
    dataset = generate_synthetic(base.data, seed=55)
    clean = run(base, dataset)
    failed = run(dataclasses.replace(base, edge_failures=((2, 3),)), dataset)
    assert len(failed.rounds) == 10
    assert np.all(np.isfinite(failed.final_global))
    acc_clean = clean.rounds[-1].test.accuracy
    acc_failed = failed.rounds[-1].test.accuracy
    assert abs(acc_clean - acc_failed) <= 0.05
    assert 2 not in failed.rounds[2].per_edge  # the failed round ran without edge 2
    report_pass(
        7,
        f"edge failure at round 3 completed; final accuracy {acc_failed:.4f} within 0.05 of clean {acc_clean:.4f}",
    )


def test_criterion_08_convergence_sanity():
    config = SimulationConfig(
        n_edges=5,
        clients_per_edge=10,
        rounds_max=30,
        patience=30,
        seed=7,
        data=DataConfig(n_samples=4000, dirichlet_alpha=0.5),
        selection=SelectionConfig(capacity_k=50),
        secagg=SecAggConfig(enabled=True, key_bits=512, noise_multiplier=0.1, clip_val=1.0),
    )
    dataset = generate_synthetic(config.data, seed=777)
    result = run(config, dataset)
    prep = prepare_data(config, dataset)
    init = evaluate(np.zeros(dataset.n_features + 1), prep.d_test.rows, prep.d_test.labels)
    final_acc = result.rounds[-1].test.accuracy
    final_auroc = result.rounds[-1].test.auroc
    assert final_acc - init.accuracy >= 0.15
    assert final_acc >= 0.80
    assert final_auroc is not None and final_auroc >= 0.85
    report_pass(
        8,
        f"accuracy {init.accuracy:.3f} -> {final_acc:.3f} (gain {final_acc - init.accuracy:.3f}), AUROC {final_auroc:.3f}",
    )


def test_criterion_09_robustness_comparison():
    shared = dict(
        n_edges=2,
        clients_per_edge=5,
        rounds_max=8,
        patience=99,
        data=DataConfig(n_samples=1500, dirichlet_alpha=0.5),
        secagg=SecAggConfig(enabled=True, key_bits=512, noise_multiplier=0.1, clip_val=1.0),
        adversaries=(
            AdversaryAssignment(1, "noise_weights", 3.0),
            AdversaryAssignment(6, "noise_weights", 3.0),
        ),
    )
    outcomes = []
    for seed in (1, 2, 3):
        dataset = generate_synthetic(shared["data"], seed=1000 + seed)
        accs = {}
        for mode in ("fedselect_me", "no_selection"):
            config = SimulationConfig(seed=seed, baseline_mode=mode, **shared)
            accs[mode] = run(config, dataset).rounds[-1].test.accuracy
        outcomes.append((seed, accs["fedselect_me"], accs["no_selection"]))
        assert accs["fedselect_me"] >= accs["no_selection"], f"seed {seed}: {accs}"
    summary = "; ".join(f"seed {s}: {a:.3f} vs {b:.3f}" for s, a, b in outcomes)
    report_pass(9, f"selection beat no_selection under 20% weight-noising liars on 3/3 seeds ({summary})")


def test_criterion_10_run_determinism(tmp_path):
    config = {
        "n_edges": 2,
        "clients_per_edge": 3,
        "rounds_max": 3,
        "patience": 10,
        "seed": 9,
        "data": {"n_samples": 600},
        "secagg": {"enabled": True, "key_bits": 512, "noise_multiplier": 0.1, "clip_val": 1.0},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(str(config_path), str(out_a)) == 0
    assert cmd_run(str(config_path), str(out_b)) == 0
    rounds_a = (out_a / "rounds.csv").read_bytes()
    rounds_b = (out_b / "rounds.csv").read_bytes()
    events_a = (out_a / "events.jsonl").read_bytes()
    events_b = (out_b / "events.jsonl").read_bytes()
    assert rounds_a == rounds_b
    assert events_a == events_b
    report_pass(10, f"two identical runs produced byte-identical rounds.csv ({len(rounds_a)} B) and events.jsonl ({len(events_a)} B)")


def test_criterion_11_fedavg_baseline_equivalence():
    scale = 2**20
    base = SimulationConfig(
        n_edges=2,
        clients_per_edge=3,
        rounds_max=1,
        patience=99,
        seed=42,
        baseline_mode="fedavg_single",
        data=DataConfig(n_samples=600),
        selection=SelectionConfig(capacity_k=6),  # every client participates
        secagg=SecAggConfig(enabled=True, key_bits=512, scale=scale, noise_multiplier=0.0, clip_val=None),
        aggregation=CrossEdgeConfig(alpha=0.5, clip_val=1e6),
    )
    dataset = generate_synthetic(base.data, seed=99)
    prep = prepare_data(base, dataset)
    spec = base.trainer
    total = sum(len(rows) for rows in prep.client_train)

    oracle_model = np.zeros(dataset.n_features + 1)
    for rounds_max in (1, 2, 3):
        sim = run(dataclasses.replace(base, rounds_max=rounds_max), dataset)
        # advance the oracle by one round: plain sample-weighted client-model mean
        models = train_clients(
            oracle_model,
            spec,
            prep.data,
            prep.client_train,
            [derive_seed(base.seed, "train", rounds_max, cid) for cid in range(base.n_clients)],
        )
        oracle_model = sum(len(rows) / total * w for rows, w in zip(prep.client_train, models, strict=True))
        deviation = np.max(np.abs(sim.final_global - oracle_model))
        assert deviation <= 4 * 0.5 / scale, f"round {rounds_max}: deviation {deviation}"
    report_pass(11, "fedavg_single equals the plaintext sample-weighted client mean for rounds 1-3 within quantization tolerance")
