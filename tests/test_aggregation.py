import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.aggregation import CrossEdgeConfig, EdgeUpdate, central_aggregate, cross_edge_exchange
from fedmesh.params import ParamVector


def pv(*values):
    return ParamVector(np.asarray(values, dtype=float))


def cross_exchange_oracle(models, counts, alpha, clip_val):
    """Scalar-loop recomputation of the exchange, models in ascending edge id.

    Each entry starts at 0.0, adds the edge's own term, then each peer's term
    in ascending id, then is clamped; a single edge is clamped directly.
    """
    n_edges = len(models)
    out = []
    for i in range(n_edges):
        mixed = []
        for k in range(len(models[i])):
            if n_edges == 1:
                acc = models[i][k]
            else:
                acc = 0.0
                acc += alpha * models[i][k]
                denom = sum(counts[j] for j in range(n_edges) if j != i)
                for j in range(n_edges):
                    if j != i:
                        acc += (1 - alpha) * counts[j] / denom * models[j][k]
            mixed.append(min(clip_val, max(-clip_val, acc)))
        out.append(mixed)
    return out


@st.composite
def edge_models(draw, max_edges=6):
    """(ids, models, counts) of 1..max_edges edges with gapped ids, in shuffled
    order; entries include +-0.0 and values far outside any clamp bound."""
    n_edges = draw(st.integers(1, max_edges))
    dim = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, 60), min_size=n_edges, max_size=n_edges, unique=True))
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0, allow_nan=False))
    models = [draw(st.lists(entry, min_size=dim, max_size=dim)) for _ in ids]
    counts = draw(st.lists(st.integers(1, 10**6), min_size=n_edges, max_size=n_edges))
    return ids, models, counts


class TestCrossEdgeExchange:
    def updates(self, models, counts):
        return [
            EdgeUpdate(edge_id=i, local_model=pv(*m), sample_count=n)
            for i, (m, n) in enumerate(zip(models, counts))
        ]

    def test_alpha_one_keeps_own_model(self):
        ups = self.updates([[1.0, -7.0], [3.0, 3.0]], [10, 20])
        out = cross_edge_exchange(ups, CrossEdgeConfig(alpha=1.0, clip_val=5.0))
        assert np.array_equal(out[0], [1.0, -5.0])  # clip still applies
        assert np.array_equal(out[1], [3.0, 3.0])

    def test_two_edges_equal_samples_blend(self):
        ups = self.updates([[1.0, 1.0], [3.0, 3.0]], [50, 50])
        out = cross_edge_exchange(ups, CrossEdgeConfig(alpha=0.5, clip_val=10.0))
        assert np.allclose(out[0], [2.0, 2.0], atol=1e-12)
        assert np.allclose(out[1], [2.0, 2.0], atol=1e-12)

    @given(edge_models(), st.floats(0.0, 1.0), st.floats(0.5, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle(self, edges, alpha, clip_val):
        ids, models, counts = edges
        ups = [EdgeUpdate(e, pv(*m), n) for e, m, n in zip(ids, models, counts)]
        out = cross_edge_exchange(ups, CrossEdgeConfig(alpha=alpha, clip_val=clip_val))
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        expected = cross_exchange_oracle([models[r] for r in by_id], [counts[r] for r in by_id], alpha, clip_val)
        assert out.shape == (len(ids), len(models[0]))
        assert out.tobytes() == np.array(expected).tobytes()

    def test_single_edge_returns_clipped_self(self):
        ups = self.updates([[7.0, -0.5]], [10])
        out = cross_edge_exchange(ups, CrossEdgeConfig(alpha=0.3, clip_val=5.0))
        assert out.shape == (1, 2)
        assert np.array_equal(out[0], [5.0, -0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_edge_exchange([], CrossEdgeConfig())
        ups = self.updates([[1.0], [1.0, 2.0]], [5, 5])
        with pytest.raises(ValueError):
            cross_edge_exchange(ups, CrossEdgeConfig())
        dup = [EdgeUpdate(0, pv(1.0), 5), EdgeUpdate(0, pv(2.0), 5)]
        with pytest.raises(ValueError):
            cross_edge_exchange(dup, CrossEdgeConfig())
        with pytest.raises(ValueError):
            EdgeUpdate(0, pv(1.0), 0)
        for bad in (dict(clip_val=0.0), dict(clip_val=-1.0), dict(alpha=1.5)):
            with pytest.raises(ValueError):
                CrossEdgeConfig(**bad)


class TestCentralAggregate:
    def test_single_edge_identity(self):
        model = np.array([0.5, -1.0])
        out = central_aggregate(model[None], [42])
        assert np.array_equal(out, model)

    def test_weighted_substitution(self):
        out = central_aggregate(np.array([[0.0, 0.0], [4.0, 4.0]]), [100, 300])
        assert np.allclose(out, [3.0, 3.0], atol=1e-12)

    @given(edge_models())
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle(self, edges):
        # rows arrive in ascending edge id, as the exchange returns them
        ids, models, counts = edges
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        rows, ns = [models[r] for r in by_id], [counts[r] for r in by_id]
        total = sum(ns)
        expected = []
        for k in range(len(rows[0])):
            acc = 0.0
            for n, row in zip(ns, rows):
                acc += n / total * row[k]
            expected.append(acc)
        assert central_aggregate(np.array(rows), ns).tobytes() == np.array(expected).tobytes()

    def test_convexity_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            models = np.stack([rng.normal(size=5) for _ in range(4)])
            counts = [int(c) for c in rng.integers(1, 100, size=4)]
            out = central_aggregate(models, counts)
            assert np.all(out <= models.max(axis=0) + 1e-12)
            assert np.all(out >= models.min(axis=0) - 1e-12)

    def test_doubling_samples_pulls_toward_edge(self):
        rng = np.random.default_rng(7)
        models = np.stack([rng.normal(size=4) for _ in range(3)])
        base = central_aggregate(models, [50, 50, 50])
        boosted = central_aggregate(models, [100, 50, 50])
        base_dist = np.abs(base - models[0])
        boosted_dist = np.abs(boosted - models[0])
        assert np.all(boosted_dist <= base_dist)
        assert np.any(boosted_dist < base_dist)

    def test_permutation_invariant_bitwise(self):
        # the global model does not depend on the order in which the edges report
        rng = np.random.default_rng(8)
        ups = [EdgeUpdate(i, ParamVector(rng.normal(size=6)), int(rng.integers(1, 50))) for i in range(5)]
        counts = [u.sample_count for u in ups]
        config = CrossEdgeConfig()
        a = central_aggregate(cross_edge_exchange(ups, config), counts)
        b = central_aggregate(cross_edge_exchange(list(reversed(ups)), config), counts)
        assert a.tobytes() == b.tobytes()

    def test_dropped_edge_still_aggregates(self):
        rng = np.random.default_rng(9)
        models = rng.normal(size=(5, 3))
        out = central_aggregate(np.delete(models, 2, axis=0), [10] * 4)
        assert np.all(np.isfinite(out))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            central_aggregate(np.zeros((0, 3)), [])
        with pytest.raises(ValueError):
            central_aggregate(np.zeros((2, 3)), [5])
