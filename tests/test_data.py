import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.data import (
    Dataset,
    _largest_remainder_counts,
    generate_synthetic,
    ingest_csv,
    partition_noniid,
    shift_features,
    split,
)


def partition_oracle(d, n_clients, dirichlet_alpha, seed):
    """Dirichlet label-skew partition dealt one Python int at a time; starved
    clients take the richest donor's last row of a class, one row at a time."""
    rng = np.random.default_rng(seed)
    holdings = [[[], []] for _ in range(n_clients)]
    for cls in (0, 1):
        rows = np.flatnonzero(d.labels == cls)
        if len(rows) == 0:
            continue
        shuffled = rng.permutation(rows)
        counts = _largest_remainder_counts(rng.dirichlet([dirichlet_alpha] * n_clients), len(rows))
        start = 0
        for j, cnt in enumerate(counts):
            holdings[j][cls].extend(int(r) for r in shuffled[start : start + cnt])
            start += cnt
    repairs = 0
    for cid, classes in enumerate(holdings):
        if max(len(classes[0]), len(classes[1])) >= 2:
            continue
        filled = False
        for cls in sorted((0, 1), key=lambda c: -len(classes[c])):
            while len(classes[cls]) < 2:
                donor = max((o for o in range(n_clients) if o != cid), key=lambda o: len(holdings[o][cls]))
                if len(holdings[donor][cls]) <= 2:
                    break
                classes[cls].append(holdings[donor][cls].pop())
                repairs += 1
            if len(classes[cls]) >= 2:
                filled = True
                break
        if not filled:
            return None, repairs
    return [sorted(h[0] + h[1]) for h in holdings], repairs


def positive_fraction(labels):
    return float(np.mean(labels))


def split_oracle(d, train, val, test, seed):
    """Each class's shuffled rows dealt to the three parts one Python int at a time."""
    rng = np.random.default_rng(seed)
    parts = [[], [], []]
    for c in (0, 1):
        rows = rng.permutation(np.flatnonzero(d.labels == c))
        counts = _largest_remainder_counts(np.array([train, val, test]), len(rows))
        start = 0
        for i, cnt in enumerate(counts):
            parts[i].extend(int(r) for r in rows[start : start + cnt])
            start += cnt
    if not all(parts):
        return None
    return [d.subset(sorted(chunk)) for chunk in parts]


class TestGenerateSynthetic:
    def test_deterministic_bytes(self):
        a = generate_synthetic(1000, 10, 0.1, seed=7)
        b = generate_synthetic(1000, 10, 0.1, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_seed_changes_output(self):
        a = generate_synthetic(500, 5, 0.3, seed=1)
        b = generate_synthetic(500, 5, 0.3, seed=2)
        assert a.features.tobytes() != b.features.tobytes()

    @pytest.mark.parametrize("imbalance,lo,hi", [(0.1, 0.08, 0.12), (0.5, 0.48, 0.52)])
    def test_positive_fraction(self, imbalance, lo, hi):
        d = generate_synthetic(1000, 10, imbalance, seed=7 if imbalance == 0.1 else 1)
        assert lo <= positive_fraction(d.labels) <= hi

    def test_columns_normalized(self):
        d = generate_synthetic(800, 6, 0.4, seed=3)
        assert np.all(np.abs(d.features.mean(axis=0)) < 0.1)
        assert np.all(np.abs(d.features.std(axis=0) - 1.0) < 0.1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(50, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(200, 0, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(200, 5, 1.0, seed=0)


class TestDataset:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_subset(self):
        d = generate_synthetic(200, 4, 0.5, seed=9)
        sub = d.subset([0, 5, 7])
        assert sub.n_samples == 3
        assert np.array_equal(sub.features[1], d.features[5])


class TestPartitionNonIID:
    def test_near_iid_limit(self):
        d = generate_synthetic(4000, 5, 0.4, seed=2)
        part = partition_noniid(d, n_clients=12, dirichlet_alpha=1e6, seed=5)
        global_frac = positive_fraction(d.labels)
        assert len(part) == 12
        for rows in part:
            assert abs(positive_fraction(d.labels[rows]) - global_frac) < 0.05

    def test_skewed_alpha_starves_a_client(self):
        d = generate_synthetic(4000, 5, 0.4, seed=2)
        part = partition_noniid(d, n_clients=20, dirichlet_alpha=0.1, seed=11)
        global_frac = positive_fraction(d.labels)
        fractions = [positive_fraction(d.labels[rows]) for rows in part]
        assert min(fractions) < global_frac / 2

    def test_disjoint_and_bookkeeping(self):
        d = generate_synthetic(1500, 5, 0.3, seed=4)
        part = partition_noniid(d, n_clients=12, dirichlet_alpha=0.5, seed=6)
        assert len(part) == 12
        all_rows = [int(r) for rows in part for r in rows]
        assert len(all_rows) == len(set(all_rows)) == d.n_samples

    @given(
        st.integers(1, 15), st.sampled_from([0.005, 0.05, 0.5, 5.0]),
        st.integers(100, 400), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_oracle(self, n_clients, alpha, n_samples, imbalance, seed):
        # the same rows per client, including which rows a starved client takes from which donor
        d = generate_synthetic(n_samples, 3, imbalance, seed=seed % 1000)
        want, _ = partition_oracle(d, n_clients, alpha, seed)
        if want is None:
            with pytest.raises(ValueError, match="could not give every client"):
                partition_noniid(d, n_clients, alpha, seed)
            return
        part = partition_noniid(d, n_clients, alpha, seed)
        got = [rows.tolist() for rows in part]
        assert got == want
        # each client's rows are sorted, no two clients share a row, and together they hold every row once
        assert all(rows == sorted(rows) for rows in got)
        held = [r for rows in got for r in rows]
        assert len(held) == len(set(held))
        assert sorted(held) == list(range(d.n_samples))

    def test_every_client_has_two_of_a_class(self):
        d = generate_synthetic(900, 5, 0.25, seed=8)
        part = partition_noniid(d, n_clients=9, dirichlet_alpha=0.3, seed=3)
        for rows in part:
            counts = np.bincount(d.labels[rows], minlength=2)
            assert counts.max() >= 2

    def test_deterministic(self):
        d = generate_synthetic(1000, 5, 0.5, seed=1)
        p1 = partition_noniid(d, 6, 0.5, seed=9)
        p2 = partition_noniid(d, 6, 0.5, seed=9)
        assert len(p1) == len(p2) == 6
        for rows1, rows2 in zip(p1, p2):
            assert np.array_equal(rows1, rows2)

    def test_infeasible_sizes_rejected(self):
        d = generate_synthetic(100, 5, 0.5, seed=1)
        with pytest.raises(ValueError):
            partition_noniid(d, n_clients=100, dirichlet_alpha=0.5, seed=0)


class TestShiftFeatures:
    def test_only_selected_rows_move(self):
        d = generate_synthetic(200, 4, 0.5, seed=10)
        shifted = shift_features(d, [0, 1], 2.5)
        assert np.allclose(shifted.features[0], d.features[0] + 2.5)
        assert np.array_equal(shifted.features[2], d.features[2])
        assert np.array_equal(shifted.labels, d.labels)


class TestIngestCsv:
    def test_hand_computed_zscores(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1,10,0\n2,20,1\n3,60,0\n")
        d, dropped = ingest_csv(str(path), "y")
        assert dropped == 0
        expected = np.array(
            [
                [-1.224744871391589, -0.9258200997725515],
                [0.0, -0.46291004988627577],
                [1.224744871391589, 1.3887301496588271],
            ]
        )
        assert np.allclose(d.features, expected, atol=1e-9)
        assert np.array_equal(d.labels, [0, 1, 0])

    def test_missing_row_dropped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b,y\n1,2,0\n,,\n3,4,1\n5,6,0\n")
        d, dropped = ingest_csv(str(path), "y")
        assert d.n_samples == 3
        assert dropped == 1

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,0\n2,2\n")
        with pytest.raises(ValueError, match="binary"):
            ingest_csv(str(path), "y")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            ingest_csv("/nonexistent/no.csv", "y")

    def test_zero_usable_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,y\n,\n,\n")
        with pytest.raises(ValueError, match="no usable rows"):
            ingest_csv(str(path), "y")

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label column"):
            ingest_csv(str(path), "target")


class TestSplit:
    def test_sizes(self):
        d = generate_synthetic(1000, 5, 0.3, seed=4)
        tr, va, te = split(d, 0.8, 0.1, 0.1, seed=2)
        assert abs(tr.n_samples - 800) <= 1
        assert abs(va.n_samples - 100) <= 1
        assert abs(te.n_samples - 100) <= 1
        assert tr.n_samples + va.n_samples + te.n_samples == 1000

    def test_deterministic(self):
        d = generate_synthetic(500, 5, 0.5, seed=4)
        s1 = split(d, 0.7, 0.15, 0.15, seed=3)
        s2 = split(d, 0.7, 0.15, 0.15, seed=3)
        for a, b in zip(s1, s2):
            assert a.features.tobytes() == b.features.tobytes()

    def test_stratification(self):
        d = generate_synthetic(1000, 5, 0.3, seed=4)
        whole = positive_fraction(d.labels)
        for part in split(d, 0.8, 0.1, 0.1, seed=2):
            assert abs(positive_fraction(part.labels) - whole) < 0.03

    def test_disjoint_union(self):
        d = generate_synthetic(300, 4, 0.5, seed=6)
        tr, va, te = split(d, 0.6, 0.2, 0.2, seed=1)
        # feature rows are unique with probability 1, so match rows by bytes
        seen = {row.tobytes() for part in (tr, va, te) for row in part.features}
        assert len(seen) == 300

    @given(
        n=st.integers(1, 300),
        positive=st.floats(0.0, 1.0),
        train=st.floats(0.0, 1.0),
        val_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_oracle(self, n, positive, train, val_share, seed):
        rng = np.random.default_rng(seed)
        d = Dataset(rng.normal(size=(n, 3)), (rng.random(n) < positive).astype(int))
        val = val_share * (1.0 - train)
        test = max(0.0, 1.0 - train - val)
        want = split_oracle(d, train, val, test, seed)
        if want is None:
            with pytest.raises(ValueError, match="split is empty"):
                split(d, train, val, test, seed)
            return
        for got, ref in zip(split(d, train, val, test, seed), want):
            assert got.features.tobytes() == ref.features.tobytes()
            assert got.labels.tobytes() == ref.labels.tobytes()

    def test_fraction_sum_validated(self):
        d = generate_synthetic(300, 4, 0.5, seed=6)
        with pytest.raises(ValueError):
            split(d, 0.8, 0.1, 0.2, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            split(d, 1.1, -0.1, 0.0, seed=1)
