import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedmesh.data import (
    DataConfig,
    Dataset,
    _largest_remainder_counts,
    _quantile,
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


def every_row(d):
    return np.arange(d.n_samples)


def synthetic(n_samples, n_features, class_imbalance, seed):
    return generate_synthetic(
        DataConfig(n_samples=n_samples, n_features=n_features, class_imbalance=class_imbalance), seed
    )


def split_config(train, val, test):
    return DataConfig(train_fraction=train, val_fraction=val, test_fraction=test)


def positive_fraction(labels):
    return float(np.mean(labels))


def split_oracle(d, train, val, test, seed):
    """Each class's shuffled row ids dealt to the three parts one Python int at a time, each part sorted."""
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
    return [sorted(chunk) for chunk in parts]


class TestGenerateSynthetic:
    def test_deterministic_bytes(self):
        a = synthetic(1000, 10, 0.1, seed=7)
        b = synthetic(1000, 10, 0.1, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_seed_changes_output(self):
        a = synthetic(500, 5, 0.3, seed=1)
        b = synthetic(500, 5, 0.3, seed=2)
        assert a.features.tobytes() != b.features.tobytes()

    @pytest.mark.parametrize("imbalance,lo,hi", [(0.1, 0.08, 0.12), (0.5, 0.48, 0.52)])
    def test_positive_fraction(self, imbalance, lo, hi):
        d = synthetic(1000, 10, imbalance, seed=7 if imbalance == 0.1 else 1)
        assert lo <= positive_fraction(d.labels) <= hi

    def test_columns_normalized(self):
        d = synthetic(800, 6, 0.4, seed=3)
        assert np.all(np.abs(d.features.mean(axis=0)) < 0.1)
        assert np.all(np.abs(d.features.std(axis=0) - 1.0) < 0.1)

    def test_size_validation(self):
        # the config that generate_synthetic takes refuses these shapes
        with pytest.raises(ValueError, match="n_samples"):
            DataConfig(n_samples=50)
        with pytest.raises(ValueError, match="n_features"):
            DataConfig(n_features=0)
        with pytest.raises(ValueError, match="class_imbalance"):
            DataConfig(class_imbalance=1.0)


class TestDataset:
    @pytest.mark.parametrize(
        "features,labels,message",
        [
            (np.zeros((3, 2)), np.array([0, 1, 2]), "labels must be binary"),
            # nothing is rounded, parsed or cast away on the way in
            (np.zeros((3, 2)), [0.5, 1.0, 1.9], "labels must be binary"),
            (np.zeros((2, 2)), ["0", "1"], "labels must be binary"),
            (np.zeros((2, 2)), np.array([0, 1], dtype=object), "labels must be binary"),
            (np.zeros((2, 2)), [0.0, math.nan], "labels must be binary"),
            ([["1", "2"], ["3", "4"]], [0, 1], "features must be boolean, integer or real"),
            (np.zeros((2, 2), dtype=complex), [0, 1], "features must be boolean, integer or real"),
            (np.zeros((2, 2), dtype=object), [0, 1], "features must be boolean, integer or real"),
            (np.zeros(3), [0, 1, 0], "features must be a nonempty 2-D matrix"),
            (np.zeros((0, 2)), [], "features must be a nonempty 2-D matrix"),
            (np.zeros((3, 2)), [0, 1], "labels must be 1-D with one entry per feature row"),
            (np.zeros((3, 2)), [[0], [1], [0]], "labels must be 1-D with one entry per feature row"),
        ],
        ids=[
            "two", "fractional", "strings", "object-labels", "nan-label", "string-features", "complex",
            "object-features", "1-d-features", "no-rows", "short-labels", "column-labels",
        ],
    )
    def test_label_validation(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, labels)

    def test_equality_is_identity(self):
        # the records hold arrays, so == compares no content and a dataset can be a set member
        a, b = Dataset(np.zeros((3, 2)), [0, 1, 0]), Dataset(np.zeros((3, 2)), [0, 1, 0])
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_numeric_inputs_are_stored_as_float64_and_int64(self):
        d = Dataset(np.array([[1, 2], [3, 4]], dtype=np.int32), np.array([True, False]))
        assert d.features.dtype == np.float64 and d.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert d.labels.dtype == np.int64 and d.labels.tolist() == [1, 0]
        assert Dataset(np.zeros((2, 1)), [1.0, 0.0]).labels.tolist() == [1, 0]

    def test_subset(self):
        d = synthetic(200, 4, 0.5, seed=9)
        sub = d.subset([0, 5, 7])
        assert sub.n_samples == 3
        assert np.array_equal(sub.features[1], d.features[5])

    @pytest.mark.parametrize("made_by", ["constructor", "subset", "shift_features", "ingest_csv", "generate_synthetic"])
    def test_rows_are_one_read_only_bias_augmented_store(self, made_by, tmp_path):
        # the model's input rows, its features then 1.0, kept once: features is a view of them
        given = np.array([[1, 2], [3, 4], [5, -6]], dtype=np.int32)
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1,10,0\n2,20,1\n3,60,0\n")
        make = {
            "constructor": lambda: Dataset(given, [0, 1, 1]),
            "subset": lambda: synthetic(200, 4, 0.5, seed=9).subset([0, 5, 7]),
            "shift_features": lambda: shift_features(synthetic(200, 4, 0.5, seed=10), [0, 1], 2.5),
            "ingest_csv": lambda: ingest_csv(str(path), "y")[0],
            "generate_synthetic": lambda: synthetic(300, 5, 0.3, seed=4),
        }
        d = make[made_by]()
        assert d.rows.dtype == np.float64 and d.rows.shape == (d.n_samples, d.n_features + 1)
        assert d.rows.flags.c_contiguous and not d.rows.flags.writeable and not d.features.flags.writeable
        assert np.all(d.rows[:, -1] == 1.0)
        assert np.shares_memory(d.features, d.rows) and d.features.tobytes() == d.rows[:, :-1].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            d.rows[0, 0] = 0.0
        if made_by == "constructor":
            given[0, 0] = 99  # the dataset keeps its own copy
            assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, -6.0]]


@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]), st.floats(-1e6, 1e6, allow_subnormal=True)),
        min_size=1,
        max_size=60,
    ),
    q=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=400, deadline=None)
def test_quantile_has_the_bytes_of_numpys(values, q):
    # ties of signed zeros included: the cutoff of generate_synthetic is np.quantile's to the bit
    v = np.array(values)
    assert np.float64(_quantile(v, q)).tobytes() == np.quantile(v, q).tobytes()
    assert v.tobytes() == np.array(values).tobytes()  # the input is left as it was


class TestPartitionNonIID:
    def test_near_iid_limit(self):
        d = synthetic(4000, 5, 0.4, seed=2)
        part = partition_noniid(d, every_row(d), n_clients=12, dirichlet_alpha=1e6, seed=5)
        global_frac = positive_fraction(d.labels)
        assert len(part) == 12
        for rows in part:
            assert abs(positive_fraction(d.labels[rows]) - global_frac) < 0.05

    def test_skewed_alpha_starves_a_client(self):
        d = synthetic(4000, 5, 0.4, seed=2)
        part = partition_noniid(d, every_row(d), n_clients=20, dirichlet_alpha=0.1, seed=11)
        global_frac = positive_fraction(d.labels)
        fractions = [positive_fraction(d.labels[rows]) for rows in part]
        assert min(fractions) < global_frac / 2

    def test_disjoint_and_bookkeeping(self):
        d = synthetic(1500, 5, 0.3, seed=4)
        part = partition_noniid(d, every_row(d), n_clients=12, dirichlet_alpha=0.5, seed=6)
        assert len(part) == 12
        all_rows = [int(r) for rows in part for r in rows]
        assert len(all_rows) == len(set(all_rows)) == d.n_samples

    @given(
        st.integers(1, 15), st.sampled_from([0.005, 0.05, 0.5, 5.0]),
        st.integers(100, 400), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(30, 5.0, 100, 0.5, 1)  # a draw whose starved client no donor can top up: refused
    def test_matches_per_row_oracle(self, n_clients, alpha, n_samples, imbalance, seed):
        # the same rows per client, including which rows a starved client takes from which donor
        d = synthetic(n_samples, 3, imbalance, seed=seed % 1000)
        want, _ = partition_oracle(d, n_clients, alpha, seed)
        if want is None:
            with pytest.raises(ValueError, match="could not give every client"):
                partition_noniid(d, every_row(d), n_clients, alpha, seed)
            return
        part = partition_noniid(d, every_row(d), n_clients, alpha, seed)
        got = [rows.tolist() for rows in part]
        assert got == want
        # each client's rows are sorted, no two clients share a row, and together they hold every row once
        assert all(rows == sorted(rows) for rows in got)
        held = [r for rows in got for r in rows]
        assert len(held) == len(set(held))
        assert sorted(held) == list(range(d.n_samples))

    @given(
        st.integers(1, 15), st.sampled_from([0.005, 0.05, 0.5, 5.0]),
        st.integers(100, 400), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_given_rows_partition_as_their_subset_does(self, n_clients, alpha, n_samples, imbalance, seed):
        # the train rows of a split are partitioned as the dataset of those rows alone, mapped back to row ids
        d = synthetic(n_samples, 3, imbalance, seed=seed % 1000)
        rows = split(d, DataConfig(), seed)[0]
        assert 0 < len(rows) < d.n_samples
        want, _ = partition_oracle(d.subset(rows), n_clients, alpha, seed)
        if want is None:
            with pytest.raises(ValueError, match="could not give every client"):
                partition_noniid(d, rows, n_clients, alpha, seed)
            return
        part = partition_noniid(d, rows, n_clients, alpha, seed)
        assert [p.tolist() for p in part] == [rows[w].tolist() for w in want]
        assert all(p.dtype == np.int64 for p in part)

    def test_every_client_has_two_of_a_class(self):
        d = synthetic(900, 5, 0.25, seed=8)
        part = partition_noniid(d, every_row(d), n_clients=9, dirichlet_alpha=0.3, seed=3)
        for rows in part:
            counts = np.bincount(d.labels[rows], minlength=2)
            assert counts.max() >= 2

    def test_deterministic(self):
        d = synthetic(1000, 5, 0.5, seed=1)
        p1 = partition_noniid(d, every_row(d), 6, 0.5, seed=9)
        p2 = partition_noniid(d, every_row(d), 6, 0.5, seed=9)
        assert len(p1) == len(p2) == 6
        for rows1, rows2 in zip(p1, p2):
            assert np.array_equal(rows1, rows2)

    @pytest.mark.parametrize(
        "n_clients,alpha,message",
        [
            (0, 0.5, "n_clients must be positive, got 0"),
            (-2, 0.5, "n_clients must be positive, got -2"),
            (4, 0.0, "dirichlet_alpha must be positive, got 0.0"),
            (4, -1.0, "dirichlet_alpha must be positive, got -1.0"),
            (4, math.nan, "dirichlet_alpha must be positive, got nan"),
        ],
    )
    def test_invalid_arguments_rejected(self, n_clients, alpha, message):
        d = synthetic(100, 3, 0.5, seed=1)
        with pytest.raises(ValueError, match=message):
            partition_noniid(d, every_row(d), n_clients, alpha, seed=0)

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_rows_partition(self, label):
        # a class with no rows among those given is skipped; the other is dealt as usual
        d = synthetic(300, 3, 0.5, seed=3)
        rows = np.flatnonzero(d.labels == label)
        part = partition_noniid(d, rows, 5, 0.5, seed=4)
        assert len(part) == 5 and all(len(p) >= 2 and np.all(d.labels[p] == label) for p in part)
        assert sorted(np.concatenate(part).tolist()) == rows.tolist()

    def test_infeasible_sizes_rejected(self):
        d = synthetic(100, 5, 0.5, seed=1)
        with pytest.raises(ValueError):
            partition_noniid(d, every_row(d), n_clients=100, dirichlet_alpha=0.5, seed=0)


class TestShiftFeatures:
    def test_only_selected_rows_move(self):
        d = synthetic(200, 4, 0.5, seed=10)
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

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", ["a", "y"])
    def test_non_finite_cell_dropped(self, tmp_path, cell, column):
        # a non-finite cell is a missing value: its row is dropped and counted, the others are kept as read
        path = tmp_path / "nonfinite.csv"
        bad = {"a": f"{cell},20,1", "y": f"2,20,{cell}"}[column]
        path.write_text(f"a,b,y\n1,10,0\n{bad}\n3,60,0\n2,20,1\n")
        d, dropped = ingest_csv(str(path), "y")
        assert dropped == 1
        assert np.isfinite(d.features).all()
        assert np.array_equal(d.labels, [0, 0, 1])
        assert d.features[:, 0].tolist() == pytest.approx([-1.224744871391589, 1.224744871391589, 0.0])

    def test_missing_row_dropped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b,y\n1,2,0\n,,\n3,4,1\n5,6,0\n")
        d, dropped = ingest_csv(str(path), "y")
        assert d.n_samples == 3
        assert dropped == 1

    @pytest.mark.parametrize("row", ["1,2,0,99", "1,2", "1"], ids=["long", "short", "label_missing"])
    def test_row_of_another_length_dropped(self, tmp_path, row):
        # a row with more or fewer cells than the header is dropped and counted; its cells are not read
        path = tmp_path / "ragged.csv"
        path.write_text(f"a,b,y\n1,10,0\n{row}\n3,60,0\n2,20,1\n")
        d, dropped = ingest_csv(str(path), "y")
        assert dropped == 1
        assert np.array_equal(d.labels, [0, 0, 1])
        assert d.features[:, 0].tolist() == pytest.approx([-1.224744871391589, 1.224744871391589, 0.0])

    @pytest.mark.parametrize("header,twice", [("a,a,y", "a"), ("a,y,b,y", "y")])
    def test_column_named_twice_rejected(self, tmp_path, header, twice):
        # csv.DictReader would keep the later column under the name and lose the earlier one
        path = tmp_path / "twice.csv"
        cells = ",".join(["1"] * (header.count(",") + 1))
        path.write_text(f"{header}\n{cells}\n")
        with pytest.raises(ValueError, match=f"^column '{twice}' is given twice in the CSV header$"):
            ingest_csv(str(path), "y")

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
        d = synthetic(1000, 5, 0.3, seed=4)
        tr, va, te = split(d, split_config(0.8, 0.1, 0.1), seed=2)
        assert abs(len(tr) - 800) <= 1
        assert abs(len(va) - 100) <= 1
        assert abs(len(te) - 100) <= 1
        assert len(tr) + len(va) + len(te) == 1000

    def test_deterministic(self):
        d = synthetic(500, 5, 0.5, seed=4)
        s1 = split(d, split_config(0.7, 0.15, 0.15), seed=3)
        s2 = split(d, split_config(0.7, 0.15, 0.15), seed=3)
        for a, b in zip(s1, s2):
            assert a.tobytes() == b.tobytes()

    def test_stratification(self):
        d = synthetic(1000, 5, 0.3, seed=4)
        whole = positive_fraction(d.labels)
        for rows in split(d, split_config(0.8, 0.1, 0.1), seed=2):
            assert abs(positive_fraction(d.labels[rows]) - whole) < 0.03

    def test_disjoint_union(self):
        d = synthetic(300, 4, 0.5, seed=6)
        parts = split(d, split_config(0.6, 0.2, 0.2), seed=1)
        for rows in parts:
            assert rows.dtype == np.int64
            assert np.all(np.diff(rows) > 0)  # sorted, no row twice
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(d.n_samples))

    @given(
        n=st.integers(1, 300),
        positive=st.floats(0.0, 1.0),
        train=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        val_share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_oracle(self, n, positive, train, val_share, seed):
        rng = np.random.default_rng(seed)
        d = Dataset(rng.normal(size=(n, 3)), (rng.random(n) < positive).astype(int))
        val = val_share * (1.0 - train)
        test = 1.0 - train - val
        assume(val > 0 and test > 0)  # DataConfig takes positive fractions only
        want = split_oracle(d, train, val, test, seed)
        if want is None:
            with pytest.raises(ValueError, match="split is empty"):
                split(d, split_config(train, val, test), seed)
            return
        got = split(d, split_config(train, val, test), seed)
        assert [rows.tolist() for rows in got] == want
        assert all(rows.dtype == np.int64 for rows in got)

    def test_fraction_sum_validated(self):
        # the config that split takes refuses these fractions
        with pytest.raises(ValueError, match="sum to 1"):
            split_config(0.8, 0.1, 0.2)
        with pytest.raises(ValueError, match="positive"):
            split_config(1.1, -0.1, 0.0)
        # a zero fraction gets no row by largest remainders, so every split with it would be empty
        for parts in [(0.0, 0.85, 0.15), (0.85, 0.0, 0.15), (0.85, 0.15, 0.0)]:
            with pytest.raises(ValueError, match="positive"):
                split_config(*parts)
