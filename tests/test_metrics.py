import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmesh.metrics import binary_metrics, jain_fairness

# published per-edge test accuracies whose fairness index is quoted as 0.999993
EDGE_ACCURACIES = (0.9937605, 0.9914487, 0.994351, 0.9970067, 0.9954772)


def auroc_pairwise_oracle(probs, labels):
    """Exhaustive pairwise comparison; ties between a pos and a neg count 0.5."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def auroc_midrank_oracle(probs, labels):
    """Rank-sum AUROC with each tie run's midrank found by walking the sorted values."""
    order = np.argsort(probs, kind="stable")
    sorted_probs = probs[order]
    ranks = np.empty(len(probs))
    i = 0
    while i < len(sorted_probs):
        j = i
        while j + 1 < len(sorted_probs) and sorted_probs[j + 1] == sorted_probs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def confusion_oracle(probs, labels, threshold):
    tp = fp = fn = tn = 0
    for p, y in zip(probs, labels):
        pred = 1 if p >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def f1_oracle(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


class TestBinaryMetrics:
    def test_perfect_predictor(self):
        m = binary_metrics([1.0, 0.0, 1.0, 0.0], [1, 0, 1, 0])
        assert m.accuracy == 1.0
        assert m.f1_macro == 1.0
        assert m.f1_weighted == 1.0
        assert m.auroc == 1.0

    def test_hand_enumerated_case(self):
        # confusion TP=1 FP=1 FN=1 TN=1; 3 of 4 (pos, neg) pairs correctly ordered
        m = binary_metrics([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0], threshold=0.5)
        assert m.accuracy == 0.5
        assert m.auroc == pytest.approx(0.75, abs=1e-12)

    def test_a_probability_at_the_threshold_counts_as_positive(self):
        assert binary_metrics([0.5, 0.25], [1, 0], threshold=0.5).accuracy == 1.0
        assert binary_metrics([0.7], [1], threshold=0.7).accuracy == 1.0

    def test_constant_probability_gives_half_auroc(self):
        m = binary_metrics([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert m.auroc == pytest.approx(0.5, abs=1e-12)

    def test_single_class_auroc_undefined(self):
        m = binary_metrics([0.4, 0.6], [1, 1])
        assert m.auroc is None

    def test_auroc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 51))
            # quantized probabilities force plenty of ties
            probs = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            m = binary_metrics(probs, labels)
            assert m.auroc == pytest.approx(auroc_pairwise_oracle(probs, labels), abs=1e-12)

    @given(
        n=st.integers(2, 2000),
        levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True),
        skew=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2000, levels=[0.5], skew=0.0, seed=0)  # one tie run over everything
    @example(n=2, levels=[0.25, 0.75], skew=0.0, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_auroc_long_tie_runs_match_midrank_oracle(self, n, levels, skew, seed):
        # `skew` of the mass on the first level makes its tie run long
        rng = np.random.default_rng(seed)
        weights = np.full(len(levels), (1.0 - skew) / len(levels))
        weights[0] += skew
        probs = rng.choice(np.array(levels), size=n, p=weights)
        labels = rng.integers(0, 2, n)
        labels[rng.choice(n, 2, replace=False)] = [0, 1]
        assert binary_metrics(probs, labels).auroc == auroc_midrank_oracle(probs, labels)

    def test_confusion_metrics_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            probs = rng.random(n)
            labels = rng.integers(0, 2, n)
            m = binary_metrics(probs, labels, threshold=0.5)
            tp, fp, fn, tn = confusion_oracle(probs, labels, 0.5)
            assert m.accuracy == pytest.approx((tp + tn) / n, abs=1e-12)
            f1_pos, f1_neg = f1_oracle(tp, fp, fn), f1_oracle(tn, fn, fp)
            assert m.f1_macro == pytest.approx((f1_pos + f1_neg) / 2, abs=1e-12)
            support_pos, support_neg = tp + fn, tn + fp
            expected_weighted = (support_pos * f1_pos + support_neg * f1_neg) / n
            assert m.f1_weighted == pytest.approx(expected_weighted, abs=1e-12)

    def test_loss_nonnegative_and_tiny_for_perfect(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            probs = rng.random(10)
            labels = rng.integers(0, 2, 10)
            assert binary_metrics(probs, labels).loss >= 0.0
        perfect = binary_metrics([1.0, 0.0], [1, 0])
        assert 0.0 <= perfect.loss < 1e-11

    def test_input_validation(self):
        with pytest.raises(ValueError):
            binary_metrics([0.5], [2])
        with pytest.raises(ValueError):
            binary_metrics([0.5, 0.5], [1])
        with pytest.raises(ValueError):
            binary_metrics([], [])


class TestJainFairness:
    def test_equal_values(self):
        assert jain_fairness([0.9, 0.9, 0.9]) == pytest.approx(1.0, abs=1e-12)

    def test_single_contributor_lower_bound(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)

    def test_published_edge_accuracies(self):
        assert jain_fairness(EDGE_ACCURACIES) == pytest.approx(0.999993, abs=5e-6)

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20).filter(lambda xs: sum(xs) > 0))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, values):
        jfi = jain_fairness(values)
        assert 1.0 / len(values) - 1e-12 <= jfi <= 1.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        values = rng.random(8) + 0.1
        base = jain_fairness(values)
        # powers of two rescale exactly; arbitrary scalars within rounding
        assert jain_fairness(4.0 * values) == base
        assert jain_fairness(3.7 * values) == pytest.approx(base, abs=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([0.0, 0.0])
        with pytest.raises(ValueError):
            jain_fairness([-1.0, 2.0])
