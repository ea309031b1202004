import dataclasses
import errno
import inspect
import json
import os
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedmesh.aggregation
import fedmesh.orchestrator
import fedmesh.secagg
import fedmesh.trainer
from fedmesh import cli
from fedmesh.aggregation import CrossEdgeConfig, EdgeUpdate
from fedmesh.data import DataConfig, generate_synthetic, partition_noniid, split
from fedmesh.metrics import BinaryMetrics
from fedmesh.orchestrator import (
    MODES,
    SimulationConfig,
    _central_step,
    derive_seed,
    evaluate,
    hold_out,
    prepare_data,
    run,
)
from fedmesh.secagg import SecAggConfig
from fedmesh.selection import ScoreWeights, SelectionConfig, grid_search_init, update_weights
from fedmesh.trainer import AdversaryAssignment, TrainerConfig, train_clients


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_edges=2,
        clients_per_edge=3,
        rounds_max=3,
        patience=10,
        seed=42,
        data=DataConfig(n_samples=600),
        secagg=SecAggConfig(enabled=False, noise_multiplier=0.0, clip_val=None),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(DataConfig(n_samples=600), seed=99)


@pytest.fixture(scope="module")
def big_dataset():
    return generate_synthetic(DataConfig(n_samples=1600), seed=100)


def frozen_evaluate(weights, features, labels, threshold=0.5):
    return BinaryMetrics(accuracy=0.5, f1_macro=0.5, f1_weighted=0.5, auroc=0.5, loss=0.7)


def excluded(result):
    """Per round, the clients that any edge flagged, as the selection events record them."""
    selections = [e for e in result.events if e.type == "selection"]

    def flagged(round_no, key):
        return sorted({c for e in selections if e.round == round_no for c in getattr(e, key)})

    return [
        {
            "round": r.round,
            "inconsistent": flagged(r.round, "flagged_inconsistent"),
            "score_outlier": flagged(r.round, "flagged_score_outlier"),
        }
        for r in result.rounds
    ]


def result_fingerprint(result):
    payload = {
        "rounds": [
            {
                "round": r.round,
                "per_edge": {str(k): dataclasses.asdict(m) for k, m in r.per_edge.items()},
                "val": dataclasses.asdict(r.val),
                "test": dataclasses.asdict(r.test),
                "jfi": r.jfi,
            }
            for r in result.rounds
        ],
        "final": result.final_global.tolist(),
        "events": result.events,
    }
    return json.dumps(payload, default=vars, sort_keys=True)


class TestRunBasics:
    def test_single_round_smoke(self, dataset):
        result = run(make_config(rounds_max=1), dataset)
        assert len(result.rounds) == 1
        assert not result.stopped_early
        assert excluded(result) == [{"round": 1, "inconsistent": [], "score_outlier": []}]
        assert np.all(np.isfinite(result.final_global))

    def test_round_record_contents(self, dataset):
        result = run(make_config(rounds_max=2), dataset)
        rec = result.rounds[-1]
        assert rec.round == 2
        assert set(rec.per_edge) == {0, 1}
        assert 0.0 < rec.jfi <= 1.0
        assert rec.val.loss > 0.0 and 0.0 <= rec.val.accuracy <= 1.0
        assert rec.test.auroc is None or 0.0 <= rec.test.auroc <= 1.0

    def test_early_stopping_with_frozen_loss(self, dataset, monkeypatch):
        monkeypatch.setattr(fedmesh.orchestrator, "evaluate", frozen_evaluate)
        config = make_config(rounds_max=20, patience=3)
        result = run(config, dataset)
        # round 1 sets the baseline; rounds 2..4 fail to improve
        assert len(result.rounds) == config.patience + 1
        assert result.stopped_early

    def test_patience_ending_the_last_round_is_not_an_early_stop(self, dataset, monkeypatch):
        # rounds 2..patience + 1 fail to improve, so patience runs out in round rounds_max itself
        monkeypatch.setattr(fedmesh.orchestrator, "evaluate", frozen_evaluate)
        config = make_config(rounds_max=4, patience=3)
        result = run(config, dataset)
        assert len(result.rounds) == config.rounds_max
        assert not result.stopped_early

    @pytest.mark.parametrize("patience, rounds_run", [(1, 3), (2, 6), (3, 10)])
    def test_patience_counts_consecutive_rounds_without_improvement(
        self, dataset, monkeypatch, patience, rounds_run
    ):
        # validation loss per round: shorter runs without improvement end before the one of `patience`
        val_losses = iter([5.0, 4.0, 4.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        prepared = []

        def recording_prepare_data(config, data):
            prepared.append(prepare_data(config, data))
            return prepared[-1]

        def scripted_evaluate(weights, features, labels, threshold=0.5):
            metrics = frozen_evaluate(weights, features, labels, threshold)
            if labels is prepared[-1].d_val.labels:
                return dataclasses.replace(metrics, loss=next(val_losses))
            return metrics

        monkeypatch.setattr(fedmesh.orchestrator, "prepare_data", recording_prepare_data)
        monkeypatch.setattr(fedmesh.orchestrator, "evaluate", scripted_evaluate)
        result = run(make_config(rounds_max=12, patience=patience, min_delta=0.0), dataset)
        assert [r.val.loss for r in result.rounds] == [5.0, 4.0, 4.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0][:rounds_run]
        assert result.stopped_early

    def test_zero_patience_is_refused(self):
        # 0 would stop at the first round without improvement, exactly as 1 does
        with pytest.raises(ValueError, match=r"^patience: must be >= 1$"):
            make_config(patience=0)

    def test_a_round_without_an_edge_update_is_refused(self):
        # every client lies tenfold about its utility, so every edge flags all of them and selects none
        liars = tuple(AdversaryAssignment(c, "inflate_utility", 10.0) for c in range(4))
        config = make_config(clients_per_edge=2, seed=3, data=DataConfig(n_samples=400), adversaries=liars)
        with pytest.raises(RuntimeError, match=r"^no edge produced an update in round 1$"):
            run(config, generate_synthetic(config.data, seed=3))

    def test_runs_all_rounds_without_stop(self, dataset):
        result = run(make_config(rounds_max=3, patience=10), dataset)
        assert len(result.rounds) == 3
        assert not result.stopped_early

    def test_deterministic_given_seed(self, dataset):
        config = make_config(rounds_max=2, secagg=SecAggConfig(enabled=True, key_bits=512))
        a = run(config, dataset)
        b = run(config, dataset)
        assert result_fingerprint(a) == result_fingerprint(b)
        assert a.final_global.tobytes() == b.final_global.tobytes()

    def test_seed_changes_results(self, dataset):
        a = run(make_config(seed=1), dataset)
        b = run(make_config(seed=2), dataset)
        assert result_fingerprint(a) != result_fingerprint(b)

    def test_learning_improves_on_initial_model(self, dataset):
        config = make_config(rounds_max=5)
        result = run(config, dataset)
        prep = prepare_data(config, dataset)
        init = evaluate(np.zeros(dataset.n_features + 1), prep.d_test.features, prep.d_test.labels)
        final = evaluate(result.final_global, prep.d_test.features, prep.d_test.labels)
        assert final.accuracy > init.accuracy

    def test_score_weights_initialized_then_adapted(self, dataset):
        config = make_config(rounds_max=3, selection=SelectionConfig(capacity_k=3, grid_step=0.1))
        result = run(config, dataset)
        round1 = [e for e in result.events if e.type == "selection" and e.round == 1]
        for event in round1:
            weights = event.score_weights
            assert all(abs(round(w * 10) - w * 10) < 1e-9 for w in weights)  # grid lattice
            assert abs(sum(weights) - 1.0) < 1e-9
        round3 = [e for e in result.events if e.type == "selection" and e.round == 3]
        for event in round3:
            assert abs(sum(event.score_weights) - 1.0) < 1e-9
        assert any(
            r1.score_weights != r3.score_weights for r1, r3 in zip(round1, round3)
        )

    def test_score_weights_follow_each_edges_own_selections(self, big_dataset):
        # an edge's first selection uses the grid search on its estimates, each later one the update
        # of its previous weights by the previous evaluation means; a failed round leaves them alone
        config = make_config(
            n_edges=3,
            clients_per_edge=4,
            rounds_max=5,
            data=DataConfig(n_samples=1600),
            edge_failures=((0, 1), (1, 3), (1, 4)),
        )
        result = run(config, big_dataset)
        assert len(result.rounds) == 5
        moved = 0
        for e in range(config.n_edges):
            selections = [ev for ev in result.events if ev.type == "selection" and ev.edge == e]
            failed = {r for edge, r in config.edge_failures if edge == e}
            assert [ev.round for ev in selections] == [r for r in range(1, 6) if r not in failed]
            first = selections[0]
            triples = [(ev.estimated_utility, ev.estimated_energy, ev.security_index) for ev in first.evaluations]
            assert first.score_weights == grid_search_init(triples, config.selection).as_tuple()
            for prev, event in zip(selections, selections[1:]):
                means = tuple(
                    float(np.mean([getattr(ev, key) for ev in prev.evaluations]))
                    for key in ("estimated_utility", "estimated_energy", "security_index")
                )
                want = update_weights(ScoreWeights(*prev.score_weights), means, config.selection)
                assert event.score_weights == want.as_tuple()
                moved += event.score_weights != prev.score_weights
        assert moved > 0

    def test_invalid_config_rejected(self, dataset):
        with pytest.raises(ValueError, match="patience"):
            run(make_config(patience=-1), dataset)
        with pytest.raises(ValueError, match="baseline_mode"):
            run(make_config(baseline_mode="fedprox"), dataset)
        with pytest.raises(ValueError, match="min_delta"):
            run(make_config(min_delta=float("nan")), dataset)
        with pytest.raises(ValueError, match="decision_threshold"):
            run(make_config(decision_threshold=float("nan")), dataset)

    FLOAT_FIELDS = {
        SimulationConfig: ("min_delta", "decision_threshold"),
        DataConfig: (
            "class_imbalance",
            "label_noise",
            "dirichlet_alpha",
            "train_fraction",
            "val_fraction",
            "test_fraction",
            "edge_test_fraction",
            "unknown_shift",
        ),
        TrainerConfig: ("learning_rate", "energy_alpha", "energy_beta"),
        AdversaryAssignment: ("factor",),
        SelectionConfig: (
            "consistency_threshold",
            "outlier_z_threshold",
            "eta",
            "grid_step",
            "default_security_index",
        ),
        SecAggConfig: ("clip_val", "noise_multiplier"),
        CrossEdgeConfig: ("alpha", "clip_val"),
    }

    def test_float_fields_are_listed(self):
        for section, names in self.FLOAT_FIELDS.items():
            annotated = {f.name for f in dataclasses.fields(section) if f.type in ("float", "float | None")}
            assert annotated == set(names), section.__name__

    @given(
        st.sampled_from([(section, name) for section, names in FLOAT_FIELDS.items() for name in names]),
        st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_beyond_float_range_rejected(self, field, value):
        # a range check alone compares such an int exactly and lets it through
        section, name = field
        required = {"client_id": 0, "kind": "inflate_utility"} if section is AdversaryAssignment else {}
        annotation = {f.name: f.type for f in dataclasses.fields(section)}[name]
        expected = annotation.replace("float", "finite float")  # "finite float | None" for clip_val
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name}: expected {expected}, got {value!r}')}$"):
            section(**required, **{name: value})

    @pytest.mark.parametrize("key", ["3", "x", True, 3.0])
    def test_security_override_needs_an_integer_client_id(self, key):
        # run looks a client's override up by its integer id, so any other key would be ignored
        with pytest.raises(ValueError, match=f"^{re.escape(f'security_overrides[{key!r}]: client id must be an integer')}$"):
            make_config(security_overrides={key: 1.0})

    @pytest.mark.parametrize(
        "section, field, value, expected",
        [
            (SimulationConfig, "seed", "3", "expected int, got '3'"),
            (SimulationConfig, "seed", 3.0, "expected int, got 3.0"),
            (SimulationConfig, "seed", np.int64(3), "expected int, got np.int64(3)"),
            (SimulationConfig, "n_edges", 2.5, "expected int, got 2.5"),
            (SimulationConfig, "adversaries", [], "expected tuple, got []"),
            (SecAggConfig, "enabled", "no", "expected bool, got 'no'"),
            (SecAggConfig, "noise_multiplier", float("nan"), "expected finite float, got nan"),
            (DataConfig, "unknown_shift", float("nan"), "expected finite float, got nan"),
            (DataConfig, "label_noise", float("inf"), "expected finite float, got inf"),
            (CrossEdgeConfig, "clip_val", float("inf"), "expected finite float, got inf"),
            (SelectionConfig, "capacity_k", True, "expected int, got True"),
        ],
    )
    def test_wrongly_typed_field_is_refused(self, section, field, value, expected):
        # a seed of "3", 3.0 or np.int64(3) would hash to a different run than 3
        message = f"^{re.escape(f'{field}: {expected}')}$"
        with pytest.raises(ValueError, match=message):
            section(**{field: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(section(), **{field: value})

    def test_numpy_floats_are_floats(self):
        config = make_config(min_delta=np.float64(0.5), secagg=SecAggConfig(clip_val=np.float64(2.0)))
        assert config.min_delta == 0.5 and config.secagg.clip_val == 2.0
        assert type(config.min_delta) is float and type(config.secagg.clip_val) is float  # stored as Python floats

    def test_equal_configs_hash_equal(self):
        a, b = make_config(security_overrides={3: 0.5}), make_config(security_overrides={3: 0.5})
        assert a == b and hash(a) == hash(b)
        assert {a: "run"}[b] == "run"
        assert a != make_config(security_overrides={3: 0.25})  # equality still covers the overrides

    def test_security_override_reaches_selection(self, dataset):
        result = run(make_config(rounds_max=1, security_overrides={3: 1.0}), dataset)
        indices = {
            ev.client: ev.security_index
            for event in result.events
            if event.type == "selection"
            for ev in event.evaluations
        }
        assert set(indices) == set(range(6))
        assert indices[3] == 1.0
        assert all(index == 0.5 for cid, index in indices.items() if cid != 3)

    def test_diverged_training_names_round_and_client(self, dataset):
        # clients 0-3 stay finite at this step size; client 4 is the first to overflow
        config = make_config(trainer=TrainerConfig(learning_rate=1e308, batch_size=8))
        message = r"^round 1, client 4: trained weights are not finite \(trainer\.learning_rate=1e\+308\)$"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            run(config, dataset)


class TestSecureAggregationPath:
    def test_he_and_plaintext_paths_agree_exactly(self, dataset):
        # both modes sum the same quantized deltas and share one release step
        secure = SecAggConfig(enabled=True, key_bits=512, noise_multiplier=0.1, clip_val=1.0)
        with_he = make_config(rounds_max=2, secagg=secure)
        plain = dataclasses.replace(with_he, secagg=dataclasses.replace(secure, enabled=False))
        encrypted = run(with_he, dataset)
        plaintext = run(plain, dataset)
        assert plaintext.final_global.tobytes() == encrypted.final_global.tobytes()
        assert plaintext.rounds == encrypted.rounds
        assert plaintext.events == encrypted.events

    def test_plaintext_run_never_forks(self, dataset, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        secure = make_config(rounds_max=2, secagg=SecAggConfig(enabled=True, key_bits=256))
        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
        forked = run(secure, dataset)
        monkeypatch.setattr(os, "fork", no_fork)
        assert len(run(make_config(rounds_max=2), dataset).rounds) == 2
        # the secure path forks for its keys, so the patch does intercept it
        with pytest.raises(AssertionError, match="os.fork called"):
            run(secure, dataset)
        _assert_no_child_left()
        # with one usable core the keys and randomizers are made in process, to the same bytes
        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 1)
        assert run(secure, dataset).final_global.tobytes() == forked.final_global.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_no_worker_outlives_the_run(self, dataset, monkeypatch):
        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
        secure = SecAggConfig(enabled=True, key_bits=256)
        assert len(run(make_config(rounds_max=2, secagg=secure), dataset).rounds) == 2
        _assert_no_child_left()

        # a worker that exits before sending its key fails the run at once; the alarm ends a hang
        def hung(signum, frame):
            raise TimeoutError("the run waited on a worker that had exited")

        monkeypatch.setattr(fedmesh.secagg, "keygen", lambda key_bits, seed: os._exit(0))
        previous = signal.signal(signal.SIGALRM, hung)
        started = time.monotonic()
        try:
            signal.alarm(30)
            with pytest.raises(ChildProcessError, match="exited early"):
                run(make_config(rounds_max=2, secagg=secure), dataset)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10
        _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"), reason="needs fork")
    @pytest.mark.parametrize("call,failing", [("fork", 3), ("pipe", 3)], ids=["fork", "pipe"])
    def test_worker_that_cannot_start_keeps_the_bytes(self, dataset, monkeypatch, call, failing):
        # the 3rd of 5 edge keys cannot get a worker: it and the later keys are made in process
        secure = make_config(n_edges=5, clients_per_edge=2, rounds_max=2, secagg=SecAggConfig(enabled=True, key_bits=256))
        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 1)
        in_process = run(secure, dataset)
        calls, real = [], getattr(os, call)

        def exhausted():
            calls.append(call)
            if len(calls) == failing:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
        monkeypatch.setattr(os, call, exhausted)
        before = sorted(os.listdir("/proc/self/fd"))
        result = run(secure, dataset)
        assert len(calls) == failing
        assert result.final_global.tobytes() == in_process.final_global.tobytes()
        assert result.rounds == in_process.rounds and result.events == in_process.events
        assert sorted(os.listdir("/proc/self/fd")) == before
        _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.parametrize("mode,encrypted", [("fedavg_single", 12), ("no_selection", 18)])
    def test_worker_makes_no_randomizer_that_goes_unused(self, dataset, monkeypatch, mode, encrypted):
        # fedavg_single encrypts capacity_k of its 6 clients' updates a round, so its worker's
        # budget is that many a round, not one per client of the edge; no_selection encrypts
        # all 3 clients of each of the 2 edges, so each edge's worker makes 3 a round
        budgets, made = [], []
        start, encrypt = fedmesh.secagg._KeyWorker.__init__, fedmesh.secagg.encrypt_update

        def counted_start(worker, key_bits, seed, count, earlier):
            budgets.append(count)
            start(worker, key_bits, seed, count, earlier)

        def counted_encrypt(v, codec, public_key):
            cv = encrypt(v, codec, public_key)
            made.append(cv.dim)
            return cv

        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
        monkeypatch.setattr(fedmesh.secagg._KeyWorker, "__init__", counted_start)
        monkeypatch.setattr(fedmesh.secagg, "encrypt_update", counted_encrypt)
        config = make_config(
            baseline_mode=mode,
            rounds_max=3,
            selection=SelectionConfig(capacity_k=4),
            secagg=SecAggConfig(enabled=True, key_bits=256),
        )
        result = run(config, dataset)
        assert len(result.rounds) == 3 and len(made) == encrypted
        assert sum(budgets) == sum(made)
        _assert_no_child_left()

    def test_headroom_refusal_names_round_edge_and_client(self, dataset):
        # only client 1's submitted weights are out of range; every client is aggregated
        config = make_config(
            rounds_max=1,
            baseline_mode="no_selection",
            adversaries=(AdversaryAssignment(client_id=1, kind="noise_weights", factor=1e10),),
        )
        secure = dataclasses.replace(config, secagg=SecAggConfig(enabled=True, key_bits=256))
        messages = []
        for cfg in (config, secure):
            with pytest.raises(OverflowError) as refused:
                run(cfg, dataset)
            assert isinstance(refused.value.__cause__, fedmesh.secagg.HeadroomError)
            messages.append(str(refused.value))
            _assert_no_child_left()
        assert re.fullmatch(r"round 1, edge 0, client 1: element \d+ \(\S+\) exceeds the 42-bit slot headroom .*", messages[0])
        assert messages[1] == messages[0]

    def test_dp_noise_perturbs_model(self, dataset):
        quiet = make_config(rounds_max=1)
        noisy = make_config(
            rounds_max=1, secagg=SecAggConfig(enabled=False, noise_multiplier=2.0, clip_val=0.5)
        )
        a = run(quiet, dataset)
        b = run(noisy, dataset)
        assert not np.allclose(a.final_global, b.final_global, atol=1e-6)


class TestAdversaries:
    def test_metric_liars_excluded_every_round(self, big_dataset):
        config = make_config(
            n_edges=2,
            clients_per_edge=10,
            rounds_max=5,
            data=DataConfig(n_samples=1600),
            adversaries=(
                AdversaryAssignment(0, "inflate_utility", 5.0),
                AdversaryAssignment(7, "inflate_utility", 5.0),
                AdversaryAssignment(13, "inflate_utility", 5.0),
            ),
        )
        result = run(config, big_dataset)
        assert len(result.rounds) == 5
        for entry in excluded(result):
            assert set(entry["inconsistent"]) >= {0, 7, 13}
        for event in result.events:
            if event.type == "selection":
                for liar in {0, 7, 13} & set(ev.client for ev in event.evaluations):
                    assert liar not in event.selected

    def test_no_selection_lets_liars_through(self, big_dataset):
        config = make_config(
            n_edges=2,
            clients_per_edge=10,
            rounds_max=2,
            baseline_mode="no_selection",
            data=DataConfig(n_samples=1600),
            adversaries=(AdversaryAssignment(0, "inflate_utility", 5.0),),
        )
        result = run(config, big_dataset)
        for entry in excluded(result):
            assert entry["inconsistent"] == [] and entry["score_outlier"] == []
        liar_edge_events = [
            e for e in result.events if e.type == "selection" and e.edge == 0
        ]
        assert liar_edge_events and all(0 in e.selected for e in liar_edge_events)

    def test_honest_runs_have_no_flags(self, dataset):
        result = run(make_config(rounds_max=3), dataset)
        for entry in excluded(result):
            assert entry["inconsistent"] == [] and entry["score_outlier"] == []


class TestEdgeFailures:
    def test_failed_edge_skips_one_round(self, big_dataset):
        config = make_config(
            n_edges=5,
            clients_per_edge=2,
            rounds_max=5,
            data=DataConfig(n_samples=1600),
            edge_failures=((2, 3),),
        )
        result = run(config, big_dataset)
        assert len(result.rounds) == 5
        by_round = {}
        for event in result.events:
            if event.type == "selection":
                by_round.setdefault(event.round, set()).add(event.edge)
        assert by_round[3] == {0, 1, 3, 4}
        for r in (1, 2, 4, 5):
            assert by_round[r] == {0, 1, 2, 3, 4}
        assert 2 not in result.rounds[2].per_edge
        assert np.all(np.isfinite(result.final_global))

    def test_prefix_identical_until_failure(self, big_dataset):
        base = make_config(
            n_edges=5, clients_per_edge=2, rounds_max=4, data=DataConfig(n_samples=1600)
        )
        clean = run(base, big_dataset)
        failed = run(dataclasses.replace(base, edge_failures=((2, 3),)), big_dataset)
        for r_clean, r_failed in zip(clean.rounds[:2], failed.rounds[:2]):
            assert r_clean.val == r_failed.val
            assert r_clean.test == r_failed.test
            assert dict(r_clean.per_edge) == dict(r_failed.per_edge)
        assert clean.rounds[2].val.loss != failed.rounds[2].val.loss

    def test_training_does_not_depend_on_who_else_trains(self, big_dataset, monkeypatch):
        # all clients of a round train in stacked steps; a failed edge changes that batch's
        # membership, and no surviving client's weights may move by a single bit
        calls = []
        train_clients_ = fedmesh.trainer.train_clients

        def recording(start, spec, data, shards, seeds):
            models = train_clients_(start, spec, data, shards, seeds)
            calls.append({seed: m.tobytes() for seed, m in zip(seeds, models)})
            return models

        monkeypatch.setattr(fedmesh.trainer, "train_clients", recording)
        base = make_config(n_edges=3, clients_per_edge=4, rounds_max=2, data=DataConfig(n_samples=1600))
        clean = run(base, big_dataset)
        clean_calls, calls = calls, []
        failed = run(dataclasses.replace(base, edge_failures=((1, 2),)), big_dataset)

        def round_one(result):
            return (
                result.rounds[0],
                [e for e in result.events if e.round == 1],
                excluded(result)[0],
            )

        assert repr(round_one(clean)) == repr(round_one(failed))
        assert clean_calls[0] == calls[0]
        survivors = {derive_seed(base.seed, "train", 2, cid) for e in (0, 2) for cid in base.edge_clients[e]}
        assert set(calls[1]) == survivors
        assert len(clean_calls[1]) == 12
        assert calls[1] == {seed: clean_calls[1][seed] for seed in survivors}

    def test_four_of_five_edges_fail(self, big_dataset):
        config = make_config(
            n_edges=5,
            clients_per_edge=2,
            rounds_max=2,
            data=DataConfig(n_samples=1600),
            edge_failures=((0, 2), (1, 2), (2, 2), (3, 2)),
        )
        result = run(config, big_dataset)
        assert len(result.rounds) == 2
        assert set(result.rounds[1].per_edge) == {4}
        assert np.all(np.isfinite(result.final_global))

    def test_failure_pairs_are_a_set(self, big_dataset, tmp_path):
        # a pair given twice fails its edge once, and the events of a round come in ascending edge id
        base = make_config(n_edges=4, clients_per_edge=2, rounds_max=3, data=DataConfig(n_samples=1600))
        out = {}
        for name, pairs in (("repeated", ((3, 2), (1, 2), (3, 2))), ("once", ((1, 2), (3, 2)))):
            result = cli._run_to_dir(dataclasses.replace(base, edge_failures=pairs), big_dataset, tmp_path / name)
            failures = [(ev.round, ev.edge) for ev in result.events if ev.type == "edge_failure"]
            assert failures == [(2, 1), (2, 3)]
            out[name] = [(tmp_path / name / f).read_bytes() for f in ("rounds.csv", "events.jsonl")]
        assert out["repeated"] == out["once"]

    def test_failing_every_edge_errors(self, dataset):
        config = make_config(edge_failures=((0, 1), (1, 1)))
        with pytest.raises(RuntimeError, match="all edges failed"):
            run(config, dataset)

    def test_inject_edge_failure_validates(self, dataset):
        config = make_config()

        def inject(edge_id, round_no):
            return dataclasses.replace(config, edge_failures=config.edge_failures + ((edge_id, round_no),))

        with pytest.raises(ValueError):
            inject(9, 1)
        with pytest.raises(ValueError):
            inject(0, 0)
        augmented = inject(1, 2)
        assert augmented.edge_failures == ((1, 2),)


class TestBaselines:
    @pytest.mark.parametrize("secure", [True, False], ids=["secagg", "plaintext"])
    @pytest.mark.parametrize(
        "mode,shape",
        [("fedavg_single", {}), ("no_selection", {"n_edges": 1, "clients_per_edge": 6})],
        ids=["fedavg_single", "no_selection"],
    )
    def test_edge_release_matches_weighted_mean_oracle(self, dataset, mode, shape, secure):
        # independent recomputation of sum_i w_i * model_i / sum_i w_i over the six clients on one edge:
        # w_i is client i's training sample count under fedavg_single, 1 under no_selection
        config = make_config(
            baseline_mode=mode,
            rounds_max=3,
            selection=SelectionConfig(capacity_k=6),
            secagg=SecAggConfig(enabled=secure, key_bits=512, noise_multiplier=0.0, clip_val=None),
            aggregation=CrossEdgeConfig(alpha=0.5, clip_val=1e6),
            **shape,
        )
        sim = run(config, dataset)
        prep = prepare_data(config, dataset)
        spec = config.trainer
        global_model = np.zeros(dataset.n_features + 1)
        for round_no in range(1, 4):
            models = train_clients(
                global_model,
                spec,
                prep.data,
                prep.client_train,
                [derive_seed(config.seed, "train", round_no, cid) for cid in range(config.n_clients)],
            )
            weights = [len(rows) if mode == "fedavg_single" else 1 for rows in prep.client_train]
            global_model = sum(w / sum(weights) * m for w, m in zip(weights, models, strict=True))
        assert np.allclose(sim.final_global, global_model, atol=4 * 0.5 / 2**20)

    def test_fedavg_single_has_one_edge(self, dataset):
        config = make_config(baseline_mode="fedavg_single", rounds_max=1)
        assert config.edge_clients == (range(6),)
        result = run(config, dataset)
        edges = {e.edge for e in result.events if e.type == "selection"}
        assert edges == {0}
        assert set(result.rounds[0].per_edge) == {0}

    def test_fedavg_single_respects_capacity(self, dataset):
        config = make_config(
            baseline_mode="fedavg_single", rounds_max=1, selection=SelectionConfig(capacity_k=4)
        )
        result = run(config, dataset)
        event = next(e for e in result.events if e.type == "selection")
        assert len(event.selected) == 4

    def test_fedavg_single_trains_only_the_sample(self, dataset, monkeypatch):
        trained = []
        train_clients_ = fedmesh.trainer.train_clients

        def recording(start, spec, data, shards, seeds):
            trained.append((list(shards), list(seeds)))
            return train_clients_(start, spec, data, shards, seeds)

        monkeypatch.setattr(fedmesh.trainer, "train_clients", recording)
        config = make_config(baseline_mode="fedavg_single", rounds_max=3, selection=SelectionConfig(capacity_k=4))
        result = run(config, dataset)
        client_train = prepare_data(config, dataset).client_train
        selections = [e for e in result.events if e.type == "selection"]
        assert len(trained) == len(selections) == 3
        for (shards, seeds), event in zip(trained, selections):
            assert len(event.selected) == 4
            assert seeds == [derive_seed(config.seed, "train", event.round, cid) for cid in event.selected]
            assert [s.tobytes() for s in shards] == [client_train[cid].tobytes() for cid in event.selected]

    def test_fedavg_single_unsampled_client_cannot_fail_the_run(self, dataset, monkeypatch):
        # a client whose rows make its training diverge fails a run only if it trains
        config = make_config(baseline_mode="fedavg_single", rounds_max=2, selection=SelectionConfig(capacity_k=4))
        clean = run(config, dataset)
        sampled = {cid for e in clean.events if e.type == "selection" for cid in e.selected}
        victim = min(set(range(config.n_clients)) - sampled)
        prepare_data_ = fedmesh.orchestrator.prepare_data

        def poisoned(config, dataset):
            prep = prepare_data_(config, dataset)
            features = prep.data.features.copy()
            features[prep.client_train[victim]] = 1e308
            return dataclasses.replace(prep, data=dataclasses.replace(prep.data, features=features))

        monkeypatch.setattr(fedmesh.orchestrator, "prepare_data", poisoned)
        assert result_fingerprint(run(config, dataset)) == result_fingerprint(clean)
        everyone = dataclasses.replace(config, selection=SelectionConfig(capacity_k=config.n_clients))
        message = rf"^round 1, client {victim}: trained weights are not finite"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            run(everyone, dataset)

    def test_no_selection_takes_everyone(self, dataset):
        config = make_config(baseline_mode="no_selection", rounds_max=1)
        result = run(config, dataset)
        for event in result.events:
            if event.type == "selection":
                assert len(event.selected) == config.clients_per_edge

    def test_baselines_deterministic(self, dataset):
        for mode in ("fedavg_single", "no_selection"):
            config = make_config(baseline_mode=mode, rounds_max=2)
            assert result_fingerprint(run(config, dataset)) == result_fingerprint(run(config, dataset))


class TestEdgeClients:
    @given(n_edges=st.integers(1, 12), clients_per_edge=st.integers(1, 12), mode=st.sampled_from(MODES))
    @settings(max_examples=100, deadline=None)
    def test_contiguous_ranges_partition_the_clients(self, n_edges, clients_per_edge, mode):
        config = SimulationConfig(n_edges=n_edges, clients_per_edge=clients_per_edge, baseline_mode=mode)
        edge_clients = config.edge_clients
        assert isinstance(edge_clients, tuple)
        assert len(edge_clients) == (1 if mode == "fedavg_single" else n_edges)
        assert all(isinstance(clients, range) and clients.step == 1 and clients for clients in edge_clients)
        assert [c for clients in edge_clients for c in clients] == list(range(config.n_clients))


class TestPrivacyBoundary:
    def test_central_step_accepts_only_edge_updates(self):
        signature = inspect.signature(_central_step)
        rendered = str(signature)
        assert "EdgeUpdate" in rendered
        assert "ClientReport" not in rendered and "report" not in rendered

    def test_aggregation_module_is_client_free(self):
        source = inspect.getsource(fedmesh.aggregation)
        assert "ClientReport" not in source
        assert "trainer" not in source
        params = inspect.signature(fedmesh.aggregation.central_aggregate).parameters
        assert list(params) == ["models", "sample_counts"]

    def test_edge_update_carries_only_aggregate_state(self):
        fields = {f.name for f in dataclasses.fields(EdgeUpdate)}
        assert fields == {"edge_id", "local_model", "sample_count"}

    @pytest.mark.parametrize("enabled", [True, False], ids=["secure", "plaintext"])
    def test_central_tier_receives_one_model_per_edge(self, dataset, monkeypatch, enabled):
        exchanged, averaged = [], []
        exchange, central = fedmesh.orchestrator.cross_edge_exchange, fedmesh.orchestrator.central_aggregate

        def recording_exchange(updates, config):
            exchanged.append(list(updates))
            return exchange(updates, config)

        def recording_central(models, sample_counts):
            averaged.append((np.asarray(models), list(sample_counts)))
            return central(models, sample_counts)

        monkeypatch.setattr(fedmesh.orchestrator, "cross_edge_exchange", recording_exchange)
        monkeypatch.setattr(fedmesh.orchestrator, "central_aggregate", recording_central)
        # three clients per edge, so a stack of one edge's client arrays never has the shape of the edges' stack
        secagg = SecAggConfig(key_bits=256) if enabled else SecAggConfig(enabled=False)
        config = make_config(n_edges=3, clients_per_edge=3, edge_failures=((1, 2),), secagg=secagg)
        result = run(config, dataset)
        dim = result.final_global.shape[0]
        assert len(exchanged) == len(averaged) == len(result.rounds) == 3
        for round_no, updates, (models, counts) in zip((1, 2, 3), exchanged, averaged):
            selecting = [
                event.edge
                for event in result.events
                if event.round == round_no and event.type == "selection" and event.selected
            ]
            assert selecting == ([0, 2] if round_no == 2 else [0, 1, 2])
            assert all(type(update) is EdgeUpdate for update in updates)
            assert [update.edge_id for update in updates] == selecting
            assert all(update.local_model.values.shape == (dim,) for update in updates)
            assert models.shape == (len(selecting), dim)
            assert counts == [update.sample_count for update in updates]


class TestEdgeHoldout:
    @given(st.integers(0, 40), st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_train_and_test_partition_each_clients_rows(self, n, fraction, seed):
        rows = np.sort(np.random.default_rng(seed).choice(10_000, size=n, replace=False))
        train, test = hold_out(rows, fraction, np.random.default_rng(seed))
        assert np.array_equal(np.sort(np.concatenate([train, test])), rows)
        assert np.array_equal(train, np.sort(train)) and np.array_equal(test, np.sort(test))
        assert (len(test) == 0) == (fraction == 0 or n < 2)
        if len(test):  # a positive fraction holds out round(fraction * n) rows, at least one and never all
            assert len(test) == min(n - 1, max(1, round(fraction * n)))

    def test_zero_fraction_holds_out_nothing(self, dataset):
        config = make_config(rounds_max=1, data=DataConfig(n_samples=600, edge_test_fraction=0.0))
        prep = prepare_data(config, dataset)
        assert [len(rows) for rows in prep.edge_test_rows] == [0, 0]
        train_rows = split(dataset, config.data, derive_seed(config.seed, "split"))[0]
        assert sum(len(rows) for rows in prep.client_train) == len(train_rows)
        record = run(config, dataset).rounds[0]
        assert record.per_edge == {}
        assert record.jfi == 1.0

    def test_an_edge_with_one_test_row_keeps_its_cells(self, dataset):
        config = make_config(rounds_max=1, clients_per_edge=1, data=DataConfig(n_samples=600, edge_test_fraction=0.001))
        prep = prepare_data(config, dataset)
        assert [len(rows) for rows in prep.edge_test_rows] == [1, 1]
        assert set(run(config, dataset).rounds[0].per_edge) == {0, 1}


class TestDataPathMemory:
    """tracemalloc bounds, in multiples of the feature matrix's bytes, on a 20,000-sample dataset
    and the 10 x 20-client plaintext shape of the benchmark's large workload."""

    data_config = DataConfig(n_samples=20_000)

    @staticmethod
    def traced(call):
        """call()'s result, with the traced bytes it held at its peak and when it returned."""
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak, held

    def test_generate_synthetic_normalizes_in_place(self):
        generate_synthetic(DataConfig(), seed=1)  # the first quantile's imports are not the data's memory
        dataset, peak, _ = self.traced(lambda: generate_synthetic(self.data_config, seed=2))
        assert peak <= 2.6 * dataset.features.nbytes

    def test_prepare_data_keeps_row_ids_into_the_dataset(self):
        dataset = generate_synthetic(self.data_config, seed=2)
        config = make_config(n_edges=10, clients_per_edge=20, data=self.data_config)
        prep, peak, held = self.traced(lambda: prepare_data(config, dataset))
        assert peak <= 1.2 * dataset.features.nbytes
        assert held <= 0.6 * dataset.features.nbytes
        assert prep.data is dataset


class TestUnknownRegion:
    def test_feature_shift_applied_to_one_edge(self, dataset):
        config = make_config(
            rounds_max=1, data=DataConfig(n_samples=600, unknown_edge=1, unknown_shift=2.0)
        )
        prep = prepare_data(config, dataset)
        base = prepare_data(make_config(rounds_max=1), dataset)
        train_rows, val_rows, test_rows = split(dataset, config.data, derive_seed(config.seed, "split"))
        client_rows = partition_noniid(
            dataset, train_rows, config.n_clients, config.data.dirichlet_alpha, derive_seed(config.seed, "partition")
        )
        assert config.edge_clients == (range(0, 3), range(3, 6))
        # every row of edge 1's clients, training and test rows alike
        shifted_rows = np.concatenate([client_rows[c] for c in config.edge_clients[1]])
        assert np.allclose(prep.data.features[shifted_rows], dataset.features[shifted_rows] + 2.0)
        # every other row, edge 0's and the validation and test rows alike, is the caller's
        unshifted = np.ones(dataset.n_samples, dtype=bool)
        unshifted[shifted_rows] = False
        assert np.array_equal(prep.data.features[unshifted], dataset.features[unshifted])
        assert np.array_equal(prep.data.labels, dataset.labels)
        assert base.data is dataset and prep.data is not dataset
        for got, rows in ((prep.d_val, val_rows), (prep.d_test, test_rows)):
            assert got.features.tobytes() == dataset.features[rows].tobytes()
            assert got.labels.tobytes() == dataset.labels[rows].tobytes()
        result = run(config, dataset)  # still trains fine
        assert len(result.rounds) == 1
