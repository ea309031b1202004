import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedmesh.trainer
from fedmesh.data import DataConfig, Dataset, generate_synthetic
from fedmesh.metrics import binary_metrics
from fedmesh.selection import estimate_metrics
from fedmesh.trainer import (
    AdversaryAssignment,
    ClientReports,
    Cohort,
    TrainerConfig,
    build_report,
    predict_proba,
    train_clients,
    train_local,
)


def bce_loss(weights, rows, labels):
    return binary_metrics(predict_proba(weights, rows), labels).loss


def with_bias(features):
    return np.hstack([features, np.ones((features.shape[0], 1))])


def oracle_gradient(w, xb, y):
    """The mean BCE's gradient at `w` on the bias-augmented batch `xb` with labels `y`, longhand."""
    p = 1.0 / (1.0 + np.exp(-np.clip(xb @ w, -500, 500)))
    return xb.T @ (p - y) / len(y)


def train_local_oracle(start, spec, dataset, indices, seed):
    """Per-batch gather, bias column and gradient step, written out longhand."""
    idx = np.asarray(indices, dtype=np.int64)
    feats = dataset.features[idx]
    labs = dataset.labels[idx].astype(np.float64)
    rng = np.random.default_rng(seed)
    w = np.array(start, copy=True)
    for _ in range(spec.local_epochs):
        order = rng.permutation(len(idx))
        for lo in range(0, len(idx), spec.batch_size):
            batch = order[lo : lo + spec.batch_size]
            xb = with_bias(feats[batch])
            y = labs[batch]
            w = w - spec.learning_rate * oracle_gradient(w, xb, y)
    return w


ORACLE_DATASET = generate_synthetic(DataConfig(n_samples=160), seed=12)


@st.composite
def shard_sizes(draw):
    """A batch size and 1-12 shard sizes: below it, exact multiples, shared tails, anything."""
    batch_size = draw(st.integers(1, 40))
    shared_tail = draw(st.integers(0, batch_size - 1))
    size = st.one_of(
        st.integers(1, batch_size),
        st.integers(0, (150 - shared_tail) // batch_size).map(lambda k: k * batch_size + shared_tail),
        st.integers(0, 150 // batch_size).map(lambda k: k * batch_size),
        st.integers(1, 150),
    ).filter(lambda n: n >= 1)
    return batch_size, draw(st.lists(size, min_size=1, max_size=12))


@pytest.fixture
def two_point_dataset():
    return Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]))


@pytest.fixture
def small_dataset():
    return generate_synthetic(DataConfig(n_samples=200), seed=21)


class TestTrainLocal:
    def test_zero_learning_rate_is_identity(self, small_dataset):
        spec = TrainerConfig(learning_rate=0.0, local_epochs=3)
        start = np.random.default_rng(1).normal(size=11)
        out = train_clients(start, spec, small_dataset, [np.arange(50), np.arange(7)], [5, 6])
        for trained in out:
            assert np.array_equal(trained, start)

    def test_loss_strictly_decreases_per_epoch(self, two_point_dataset):
        # full-batch descent on a separable pair: per-epoch loss is monotone
        start = np.zeros(2)
        idx = np.array([0, 1])
        rows, labs = two_point_dataset.rows, two_point_dataset.labels
        losses = []
        for epochs in range(101):
            spec = TrainerConfig(learning_rate=0.5, local_epochs=epochs, batch_size=2)
            w = train_clients(start, spec, two_point_dataset, [idx], [0])[0]
            losses.append(bce_loss(w, rows, labs))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_finite_differences(self, small_dataset):
        # the oracle's step formula, which test_matches_per_batch_oracle ties train_clients to byte for
        # byte, is the loss's gradient: three batches, each against its own finite differences
        rng = np.random.default_rng(3)
        rows = small_dataset.rows[:120].reshape(3, 40, 11)
        labs = small_dataset.labels[:120].astype(float).reshape(3, 40)
        eps = 1e-6
        for _ in range(20):
            w = rng.normal(scale=0.5, size=(3, 11))
            for j in range(3):
                analytic = oracle_gradient(w[j], rows[j], labs[j])
                numeric = np.empty(11)
                for k in range(11):
                    up, down = w[j].copy(), w[j].copy()
                    up[k] += eps
                    down[k] -= eps
                    numeric[k] = (bce_loss(up, rows[j], labs[j]) - bce_loss(down, rows[j], labs[j])) / (2 * eps)
                denom = np.maximum(np.abs(numeric), 1e-8)
                assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    @given(
        shards=shard_sizes(),
        local_epochs=st.integers(0, 5),
        learning_rate=st.floats(0.0, 50.0),
        start=st.lists(st.floats(-1e3, 1e3), min_size=11, max_size=11),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_batch_oracle(self, shards, local_epochs, learning_rate, start, seed, data):
        # every client trains exactly as it would alone, whoever shares its stacked steps
        batch_size, sizes = shards
        spec = TrainerConfig(local_epochs=local_epochs, learning_rate=learning_rate, batch_size=batch_size)
        rng = np.random.default_rng(seed)
        indices = [rng.permutation(len(ORACLE_DATASET.labels))[:n] for n in sizes]
        seeds = [int(s) for s in rng.integers(0, 2**63, len(sizes))]
        start = np.array(start)
        got = train_clients(start, spec, ORACLE_DATASET, indices, seeds)
        assert len(got) == len(sizes)
        for trained, rows, client_seed in zip(got, indices, seeds):
            want = train_local_oracle(start, spec, ORACLE_DATASET, rows, client_seed)
            assert trained.tobytes() == want.tobytes()
        perm = data.draw(st.permutations(range(len(sizes))))
        shuffled = train_clients(start, spec, ORACLE_DATASET, [indices[i] for i in perm], [seeds[i] for i in perm])
        for trained, i in zip(shuffled, perm):
            assert trained.tobytes() == got[i].tobytes()

    @given(shards=shard_sizes(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_steps_stack_every_client_that_takes_them(self, shards, seed):
        # bytes cannot tell lockstep from one client at a time, so pin the schedule itself: per
        # epoch, the k-th full batch of every client that has one, then one step per partial length;
        # a training call leaves it in the memo, where the next call with these sizes finds it
        batch_size, sizes = shards
        spec = TrainerConfig(local_epochs=1, learning_rate=0.5, batch_size=batch_size)
        rng = np.random.default_rng(seed)
        indices = [rng.permutation(len(ORACLE_DATASET.labels))[:n] for n in sizes]
        seeds = [int(s) for s in rng.integers(0, 2**63, len(sizes))]
        train_clients(np.zeros(11), spec, ORACLE_DATASET, indices, seeds)
        hits = fedmesh.trainer._schedule.cache_info().hits
        order, _, _, positions, cap, gathers = fedmesh.trainer._schedule(tuple(sizes), batch_size)
        assert fedmesh.trainer._schedule.cache_info().hits == hits + 1
        steps = [(count, n) for _, group in gathers for _, _, count, n in group]
        full = np.array(sizes) // batch_size
        tails = np.array(sizes) % batch_size
        per_epoch = [(int(np.sum(full > k)), batch_size) for k in range(int(full.max()))]
        per_epoch += [(int(np.sum(tails == t)), int(t)) for t in sorted(set(tails.tolist()) - {0})]
        assert steps == per_epoch
        # every epoch position is gathered once, no gather overfills the row buffer, and every array
        # of the shared schedule is read-only
        assert sorted(positions.tolist()) == list(range(sum(sizes)))
        assert all(span.stop - span.start <= cap for span, _ in gathers)
        assert not (order.flags.writeable or positions.flags.writeable)

    def test_interleaved_calls_match_cold_calls(self, small_dataset):
        # the memo keys the schedule on the shard sizes and the batch size alone: calls on shard sets
        # of other sizes, of the same sizes on other rows, and at two batch sizes, interleaved, each
        # give the bytes of a call that found the memo empty
        start = np.random.default_rng(5).normal(size=11)
        shard_sets = [
            [np.arange(0, 50), np.arange(60, 67), np.arange(100, 164)],
            [np.arange(3, 40), np.arange(120, 200)],
            [np.arange(150, 200), np.arange(0, 7), np.arange(20, 84)],
        ]
        specs = [TrainerConfig(learning_rate=0.3, local_epochs=2, batch_size=b) for b in (16, 5)]
        calls = [(shards, spec) for spec in specs for shards in shard_sets]
        seeds = [21, 22, 23]
        cold = []
        for shards, spec in calls:
            fedmesh.trainer._schedule.cache_clear()
            cold.append(train_clients(start, spec, small_dataset, shards, seeds[: len(shards)]).tobytes())
        fedmesh.trainer._schedule.cache_clear()
        for _ in range(2):
            for (shards, spec), want in zip(calls, cold):
                assert train_clients(start, spec, small_dataset, shards, seeds[: len(shards)]).tobytes() == want
        assert fedmesh.trainer._schedule.cache_info()[:2] == (8, 4)  # (hits, misses): two sizes at two batch sizes

    @given(shards=shard_sizes(), local_epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_diverged_client_is_named_by_its_input_position(self, shards, local_epochs, seed, data):
        # the clients train in their own order inside; only the one at `position` has huge rows, so
        # only it overflows, and the error names it by where it sits in the shard list
        batch_size, sizes = shards
        position = data.draw(st.integers(0, len(sizes) - 1))
        n = len(ORACLE_DATASET.labels)
        huge = Dataset(
            np.vstack([ORACLE_DATASET.features, ORACLE_DATASET.features * 1e200]),
            np.concatenate([ORACLE_DATASET.labels, ORACLE_DATASET.labels]),
        )
        rng = np.random.default_rng(seed)
        indices = [rng.permutation(n)[:size] for size in sizes]
        indices[position] = indices[position] + n
        seeds = [int(s) for s in rng.integers(0, 2**63, len(sizes))]
        spec = TrainerConfig(local_epochs=local_epochs, learning_rate=1e200, batch_size=batch_size)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(fedmesh.trainer.DivergedError) as info:
                train_clients(np.zeros(11), spec, huge, indices, seeds)
        assert info.value.index == position

    def test_deterministic_given_seed(self, small_dataset):
        spec = TrainerConfig(learning_rate=0.2, local_epochs=5, batch_size=16)
        start = np.zeros(11)
        a = train_clients(start, spec, small_dataset, [np.arange(80)], [9])[0]
        b = train_clients(start, spec, small_dataset, [np.arange(80)], [9])[0]
        assert a.tobytes() == b.tobytes()
        c = train_clients(start, spec, small_dataset, [np.arange(80)], [10])[0]
        assert a.tobytes() != c.tobytes()

    def test_empty_client_rejected(self, small_dataset):
        spec = TrainerConfig()
        start = np.zeros(11)
        with pytest.raises(ValueError, match="no training samples"):
            train_clients(start, spec, small_dataset, [[]], [0])
        with pytest.raises(ValueError, match="no training samples"):
            train_clients(start, spec, small_dataset, [np.arange(5), [], np.arange(9)], [0, 1, 2])
        with pytest.raises(ValueError, match="seeds"):
            train_clients(start, spec, small_dataset, [np.arange(5)], [0, 1])

    @pytest.mark.parametrize(
        "bad",
        [[-1, -2, 3], [1.7, 2.2], [[1, 2], [3, 4]], [0, 200]],
        ids=["negative", "float", "2-D", "n_samples"],
    )
    def test_shards_must_be_row_ids_of_the_dataset(self, small_dataset, bad):
        # named by position, not wrapped round to rows from the end or truncated to whole rows
        with pytest.raises(ValueError, match=r"shard 1 (is not a 1-D array of integer|has row ids outside \[0, 200\))"):
            train_clients(np.zeros(11), TrainerConfig(), small_dataset, [np.arange(5), bad, np.arange(3)], [0, 1, 2])

    def test_start_must_have_the_dataset_width(self, small_dataset):
        # ten features and the bias: 11 parameters
        for dim in (10, 12):
            with pytest.raises(ValueError, match=f"start has dim {dim}, model needs 11"):
                train_clients(np.zeros(dim), TrainerConfig(), small_dataset, [np.arange(5)], [0])

    def test_batch_size_far_above_shard_sizes(self, small_dataset):
        # full-batch descent: the step buffers are sized by the shards, not by batch_size
        spec = TrainerConfig(learning_rate=0.3, local_epochs=4, batch_size=10**7)
        start = np.random.default_rng(2).normal(size=11)
        shards = [np.arange(3), np.arange(40, 200), np.arange(7, 47)]
        got = train_clients(start, spec, small_dataset, shards, [11, 12, 13])
        for trained, rows, seed in zip(got, shards, [11, 12, 13]):
            want = train_local_oracle(start, spec, small_dataset, rows, seed)
            assert trained.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch_size", [2**63, 10**30])
    def test_batch_size_beyond_int64_trains_as_the_largest_shard_plus_one(self, small_dataset, batch_size):
        # any batch above the largest shard (160 rows here) makes every shard one partial batch
        start = np.random.default_rng(3).normal(size=11)
        shards = [np.arange(3), np.arange(40, 200), np.arange(7, 47)]
        got = train_clients(start, TrainerConfig(batch_size=batch_size), small_dataset, shards, [4, 5, 6])
        want = train_clients(start, TrainerConfig(batch_size=161), small_dataset, shards, [4, 5, 6])
        assert got.tobytes() == want.tobytes()

    def test_no_shards_train_no_clients(self, small_dataset):
        got = train_clients(np.zeros(11), TrainerConfig(), small_dataset, [], [])
        assert got.shape == (0, 11) and got.dtype == np.float64

    def test_training_actually_fits(self, small_dataset):
        spec = TrainerConfig(learning_rate=0.5, local_epochs=30)
        w = train_clients(np.zeros(11), spec, small_dataset, [np.arange(200)], [4])[0]
        probs = predict_proba(w, small_dataset.rows)
        acc = np.mean((probs >= 0.5) == small_dataset.labels)
        assert acc > 0.8


class TestCohort:
    SHARDS = [np.arange(0, 50), np.arange(60, 67), np.arange(100, 164)]
    SEEDS = [7, 8, 9]

    def test_members_train_once_and_match_training_alone(self, small_dataset, monkeypatch):
        spec = TrainerConfig(learning_rate=0.4, local_epochs=3, batch_size=16)
        start = np.random.default_rng(3).normal(size=11)
        alone = [train_clients(start, spec, small_dataset, [i], [s])[0] for i, s in zip(self.SHARDS, self.SEEDS)]
        runs = []
        train_clients_ = fedmesh.trainer.train_clients

        def recording(*args):
            runs.append(args)
            return train_clients_(*args)

        monkeypatch.setattr(fedmesh.trainer, "train_clients", recording)
        cohort = Cohort(start, spec, small_dataset, self.SHARDS, self.SEEDS)
        assert runs == []
        # asked for in any order, each member gets the bytes it gets alone, from one lockstep run
        for k in (2, 0, 1, 2):
            got = train_local(start, spec, small_dataset, self.SHARDS[k].copy(), self.SEEDS[k], cohort)
            want = train_local_oracle(start, spec, small_dataset, self.SHARDS[k], self.SEEDS[k])
            assert got.tobytes() == alone[k].tobytes() == want.tobytes()
        assert len(runs) == 1

    def test_non_members_rejected(self, small_dataset):
        spec = TrainerConfig()
        start = np.zeros(11)
        cohort = Cohort(start, spec, small_dataset, self.SHARDS, self.SEEDS)
        calls = [
            (start, spec, small_dataset, self.SHARDS[0], 99),
            (start, spec, small_dataset, self.SHARDS[1], self.SEEDS[0]),
            (np.zeros(11), spec, small_dataset, self.SHARDS[0], self.SEEDS[0]),
            (start, TrainerConfig(batch_size=8), small_dataset, self.SHARDS[0], self.SEEDS[0]),
            (start, spec, generate_synthetic(DataConfig(n_samples=200), seed=21), self.SHARDS[0], self.SEEDS[0]),
        ]
        for args in calls:
            with pytest.raises(ValueError, match="not a member"):
                train_local(*args, cohort)
        with pytest.raises(ValueError, match="distinct seeds"):
            Cohort(start, spec, small_dataset, self.SHARDS, [1, 2, 1])
        with pytest.raises(ValueError, match="seeds"):
            Cohort(start, spec, small_dataset, self.SHARDS, [1, 2])

    def test_a_diverged_member_is_named_by_its_position(self, small_dataset):
        # only the second member's rows are huge, so only it overflows; any member's call reports it
        features = small_dataset.features.copy()
        features[self.SHARDS[1]] *= 1e200
        data = Dataset(features, small_dataset.labels)
        spec = TrainerConfig(learning_rate=1e200, local_epochs=2)
        start = np.zeros(11)
        cohort = Cohort(start, spec, data, self.SHARDS, self.SEEDS)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(fedmesh.trainer.DivergedError) as info:
                train_local(start, spec, data, self.SHARDS[2], self.SEEDS[2], cohort)
            assert info.value.index == 1
            train_clients(start, spec, data, [self.SHARDS[0]], [self.SEEDS[0]])


def report(client_id, trained, received, spec, sample_count, security, behavior=None, rng=None):
    """build_report for one client; `behavior` is an adversary's (kind, factor)."""
    return build_report(
        [client_id], trained[None], received, spec, [sample_count], [security],
        [AdversaryAssignment(client_id, *behavior)] if behavior else (), None if rng is None else lambda cid: rng,
    )


class TestBuildReport:
    def spec(self):
        return TrainerConfig()

    def test_honest_report_zero_utility_when_unchanged(self):
        w = np.ones(11)
        assert report(0, w, w, self.spec(), sample_count=10, security=0.5).reported_utility.tolist() == [0.0]

    def test_energy_formula(self):
        w = np.ones(11)
        got = report(0, w, w, self.spec(), sample_count=100, security=0.5)
        assert got.reported_energy[0] == pytest.approx(1.011, abs=1e-12)

    def test_honest_report_matches_edge_estimate(self):
        # the edge recomputing the same quantities must land on the same numbers
        rng = np.random.default_rng(8)
        received = rng.normal(size=11)
        trained = rng.normal(size=(5, 11))
        reports = build_report([3, 4, 6, 7, 9], trained, received, self.spec(), [57, 1, 8, 300, 12], [0.4] * 5)
        est_u, est_e = estimate_metrics(reports, received, self.spec())
        assert reports.reported_utility.tobytes() == est_u.tobytes()
        assert reports.reported_energy.tobytes() == est_e.tobytes()

    def test_inflate_utility(self):
        rng = np.random.default_rng(9)
        received = rng.normal(size=11)
        trained = rng.normal(size=11)
        honest = report(1, trained, received, self.spec(), 20, 0.5)
        liar = report(1, trained, received, self.spec(), 20, 0.5, behavior=("inflate_utility", 10.0))
        assert liar.reported_utility[0] == pytest.approx(10 * honest.reported_utility[0], rel=1e-12)
        assert np.array_equal(liar.weights, honest.weights)

    def test_deflate_energy(self):
        w = np.ones(11)
        got = report(2, w, w, self.spec(), 100, 0.5, behavior=("deflate_energy", 4.0))
        assert got.reported_energy[0] == pytest.approx(1.011 / 4.0, rel=1e-12)

    def test_deflate_energy_with_integer_constants(self):
        # integers in float fields are stored as floats, so the energy array is not truncated to int64
        w = np.ones(11)
        spec = TrainerConfig(energy_alpha=1, energy_beta=0)
        got = report(2, w, w, spec, 20, 0.5, behavior=("deflate_energy", 3))
        assert got.reported_energy[0] == 20 / 3

    def test_noise_weights_masks_tamper(self):
        rng = np.random.default_rng(10)
        received = rng.normal(size=11)
        trained = rng.normal(size=(3, 11))
        drawn = []

        def rng_for(cid):
            drawn.append(cid)
            return np.random.default_rng(77)

        adversaries = [AdversaryAssignment(5, "noise_weights", 2.0), AdversaryAssignment(9, "inflate_utility", 2.0)]
        reports = build_report([4, 5, 6], trained, received, self.spec(), [30] * 3, [0.5] * 3, adversaries, rng_for)
        # only the tampering client draws noise; its weights change, its report describes the clean ones
        assert drawn == [5]
        noise = np.random.default_rng(77).normal(0.0, 2.0, 11)
        assert reports.weights[1].tobytes() == (trained[1] + noise).tobytes()
        assert np.array_equal(reports.weights[[0, 2]], trained[[0, 2]])
        honest = build_report([4, 5, 6], trained, received, self.spec(), [30] * 3, [0.5] * 3)
        assert reports.reported_utility.tobytes() == honest.reported_utility.tobytes()
        assert np.array_equal(honest.weights, trained)

    def test_noise_weights_requires_rng(self):
        w = np.ones(3)
        with pytest.raises(ValueError):
            report(0, w, w, TrainerConfig(), 5, 0.5, behavior=("noise_weights", 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            report(0, np.ones(3), np.ones(4), TrainerConfig(), 5, 0.5)


class TestValidation:
    def test_client_report_invariants(self):
        def reports(security=0.5, count=5, utility=1.0, rows=1):
            return ClientReports(
                np.array([0]), np.ones((rows, 3)), np.array([utility]), np.array([1.0]),
                np.array([security]), np.array([count]),
            )

        reports()
        for bad in (dict(security=1.5), dict(security=float("nan")), dict(count=0), dict(utility=-1.0), dict(rows=2)):
            with pytest.raises(ValueError):
                reports(**bad)

    @pytest.mark.parametrize("column", range(4))
    def test_every_metric_column_has_one_entry_per_client(self, column):
        columns = [np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.array([5, 6])]
        columns[column] = columns[column][:1]
        with pytest.raises(ValueError, match=r"^every reported metric needs one entry per client \(2\)$"):
            ClientReports(np.array([0, 1]), np.ones((2, 3)), *columns)

    def test_reports_compare_by_identity(self):
        def reports():
            return ClientReports(
                np.array([0]), np.ones((1, 3)), np.array([1.0]), np.array([1.0]), np.array([0.5]), np.array([5])
            )

        a, b = reports(), reports()
        assert a == a and a != b and len({a, b}) == 2

    @pytest.mark.parametrize("width", [2, 4])
    def test_predict_proba_needs_one_weight_per_column(self, width):
        with pytest.raises(ValueError, match=rf"^expected 3 parameters, got shape \({width},\)$"):
            predict_proba(np.zeros(width), np.ones((5, 3)))

    def test_spec_invariants(self):
        assert TrainerConfig().local_epochs == 5
        for bad in (dict(batch_size=0), dict(local_epochs=-1)):
            with pytest.raises(ValueError, match="batch_size must be positive, local_epochs nonnegative"):
                TrainerConfig(**bad)
        for name in ("learning_rate", "energy_alpha", "energy_beta"):
            for value in (-0.1, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    TrainerConfig(**{name: value})

    def test_behavior_validation(self):
        with pytest.raises(ValueError):
            AdversaryAssignment(0, "drop_updates", 1.0)
        with pytest.raises(ValueError):
            AdversaryAssignment(0, "inflate_utility", 0.0)
