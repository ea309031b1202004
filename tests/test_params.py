"""The model representation: ParamVector's validation, the distance between
models that clients report and edges recompute, and the two pieces of model
arithmetic left, the central weighted sum and the exchange's elementwise clamp."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.aggregation import CrossEdgeConfig, EdgeUpdate, central_aggregate, cross_edge_exchange
from fedmesh.params import ParamVector
from fedmesh.trainer import l1_distance


def pv(*values):
    return np.asarray(values, dtype=float)


class TestParamVector:
    def test_values_are_read_only(self):
        v = ParamVector(pv(1.0, 2.0))
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParamVector(pv(1.0, float("nan")))
        with pytest.raises(ValueError):
            ParamVector(pv(float("inf")))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            ParamVector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ParamVector(np.zeros(0))


def finite_vectors(min_dim=1, max_dim=12):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=d, max_size=d
        )
    )


def distance(a, b):
    """l1_distance of the single row a from b."""
    return l1_distance(a[None], b)[0]


class TestL1Distance:
    def test_identical_vectors_give_zero(self):
        a = pv(0.5, -1.5, 2.0)
        assert distance(a, a) == 0.0

    def test_per_parameter_reading(self):
        # |3-0| + |0-4| = 7, where the L2 norm would give 5
        assert distance(pv(3.0, 0.0), pv(0.0, 4.0)) == 7.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            expected = sum(abs(a[k] - b[k]) for k in range(10))
            assert distance(a, b) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance(pv(1.0), pv(1.0, 2.0))
        with pytest.raises(ValueError):
            l1_distance(np.ones(2), pv(1.0, 2.0))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b, c = (rng.normal(size=8) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    @given(st.integers(1, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_one_vector_sum_byte_for_byte(self, n, dim, seed):
        # every row's norm is the float the vector alone gives, whatever rows share the call
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, dim))
        reference = rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9, size=dim)
        rows = np.where(rng.random(size=(n, dim)) < 0.1, reference, rows)  # some exact zero differences
        got = l1_distance(rows, reference)
        assert got.shape == (n,)
        for row, norm in zip(rows, got):
            assert np.float64(np.sum(np.abs(row - reference))).tobytes() == norm.tobytes()


class TestWeightedSum:
    """The sample-weighted sum of edge models, as central_aggregate computes it."""

    def test_identity(self):
        v = pv(1.0, -2.0, 3.0)
        assert np.array_equal(central_aggregate(v[None], [1]), v)

    def test_convexity_with_equal_vectors(self):
        v = pv(2.0, 4.0)
        out = central_aggregate(np.stack([v, v]), [1, 1])
        assert np.allclose(out, v, atol=1e-15)

    def test_matches_elementwise_loop_oracle(self):
        rng = np.random.default_rng(5)
        counts = (2, 3, 5)  # coefficients 0.2, 0.3, 0.5
        coeffs = (0.2, 0.3, 0.5)
        vs = [rng.normal(size=5) for _ in range(3)]
        expected = [sum(c * v[k] for c, v in zip(coeffs, vs)) for k in range(5)]
        out = central_aggregate(np.stack(vs), counts)
        assert np.allclose(out, expected, atol=1e-12)

    def test_empty_and_mismatch_rejected(self):
        with pytest.raises(ValueError):
            central_aggregate(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            central_aggregate([pv(1.0), pv(1.0, 2.0)], [1, 1])
        with pytest.raises(ValueError):
            central_aggregate(np.ones((2, 2)), [1])


def clip_elementwise(v, clip_val):
    """The exchange's clamp alone: a single edge gets its own model clamped."""
    update = EdgeUpdate(edge_id=0, local_model=ParamVector(v), sample_count=1)
    return cross_edge_exchange([update], CrossEdgeConfig(clip_val=clip_val))[0]


class TestClipElementwise:
    def test_in_range_identity(self):
        v = pv(0.1, -0.2)
        assert np.array_equal(clip_elementwise(v, 1.0), v)

    def test_saturation(self):
        assert np.array_equal(clip_elementwise(pv(5.0, -5.0), 1.0), [1.0, -1.0])

    def test_bounds_property(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = rng.normal(scale=2.0, size=6)
            assert np.max(np.abs(clip_elementwise(v, 0.5))) <= 0.5

    @given(finite_vectors(), st.floats(1e-6, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, clip_val):
        once = clip_elementwise(np.asarray(values), clip_val)
        twice = clip_elementwise(once, clip_val)
        assert np.array_equal(once, twice)

    def test_nonpositive_clip_rejected(self):
        with pytest.raises(ValueError):
            clip_elementwise(pv(1.0), 0.0)
