import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.params import ParamVector, clip_elementwise, clip_l2, l2_diff_norm, weighted_sum, zeros


def pv(*values):
    return ParamVector(np.asarray(values, dtype=float))


def finite_vectors(min_dim=1, max_dim=12):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=d, max_size=d
        )
    )


class TestParamVector:
    def test_values_are_read_only(self):
        v = pv(1.0, 2.0)
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pv(1.0, float("nan"))
        with pytest.raises(ValueError):
            pv(float("inf"))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            ParamVector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ParamVector(np.zeros(0))

    def test_add_sub(self):
        a, b = pv(1.0, 2.0), pv(3.0, 5.0)
        assert np.array_equal((a + b).values, [4.0, 7.0])
        assert np.array_equal((b - a).values, [2.0, 3.0])
        with pytest.raises(ValueError):
            a + pv(1.0)

    def test_zeros(self):
        assert np.array_equal(zeros(3).values, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            zeros(0)


def distance(a, b):
    """l2_diff_norm of the single row a against b."""
    return l2_diff_norm(a.values[None], b)[0]


class TestL2DiffNorm:
    def test_identical_vectors_give_zero(self):
        a = pv(0.5, -1.5, 2.0)
        assert distance(a, a) == 0.0

    def test_per_parameter_reading(self):
        # |3-0| + |0-4| = 7 when every scalar is its own parameter
        assert distance(pv(3.0, 0.0), pv(0.0, 4.0)) == 7.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            expected = sum(abs(a[k] - b[k]) for k in range(10))
            assert distance(ParamVector(a), ParamVector(b)) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance(pv(1.0), pv(1.0, 2.0))
        with pytest.raises(ValueError):
            l2_diff_norm(np.ones(2), pv(1.0, 2.0))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b, c = (ParamVector(rng.normal(size=8)) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    @given(st.integers(1, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_one_vector_sum_byte_for_byte(self, n, dim, seed):
        # every row's norm is the float the vector alone gives, whatever rows share the call
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, dim))
        reference = rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9, size=dim)
        rows = np.where(rng.random(size=(n, dim)) < 0.1, reference, rows)  # some exact zero differences
        got = l2_diff_norm(rows, ParamVector(reference))
        assert got.shape == (n,)
        for row, norm in zip(rows, got):
            assert np.float64(np.sum(np.abs(row - reference))).tobytes() == norm.tobytes()


class TestWeightedSum:
    def test_identity(self):
        v = pv(1.0, -2.0, 3.0)
        assert np.array_equal(weighted_sum([(1.0, v)]).values, v.values)

    def test_convexity_with_equal_vectors(self):
        v = pv(2.0, 4.0)
        out = weighted_sum([(0.5, v), (0.5, v)])
        assert np.allclose(out.values, v.values, atol=1e-15)

    def test_matches_elementwise_loop_oracle(self):
        rng = np.random.default_rng(5)
        coeffs = (0.2, 0.3, 0.5)
        vs = [rng.normal(size=5) for _ in range(3)]
        expected = [sum(c * v[k] for c, v in zip(coeffs, vs)) for k in range(5)]
        out = weighted_sum([(c, ParamVector(v)) for c, v in zip(coeffs, vs)])
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(6)
        vs = [ParamVector(rng.normal(size=7)) for _ in range(4)]
        coeffs = rng.normal(size=4)
        scale = 3.7
        base = weighted_sum(list(zip(coeffs, vs)))
        scaled = weighted_sum(list(zip(scale * coeffs, vs)))
        assert np.allclose(scaled.values, scale * base.values, atol=1e-12)

    def test_empty_and_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_sum([])
        with pytest.raises(ValueError):
            weighted_sum([(1.0, pv(1.0)), (1.0, pv(1.0, 2.0))])


class TestClipElementwise:
    def test_in_range_identity(self):
        v = pv(0.1, -0.2)
        assert np.array_equal(clip_elementwise(v, 1.0).values, v.values)

    def test_saturation(self):
        assert np.array_equal(clip_elementwise(pv(5.0, -5.0), 1.0).values, [1.0, -1.0])

    def test_bounds_property(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = ParamVector(rng.normal(scale=2.0, size=6))
            assert np.max(np.abs(clip_elementwise(v, 0.5).values)) <= 0.5

    @given(finite_vectors(), st.floats(1e-6, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, clip_val):
        once = clip_elementwise(ParamVector(np.asarray(values)), clip_val)
        twice = clip_elementwise(once, clip_val)
        assert np.array_equal(once.values, twice.values)

    def test_nonpositive_clip_rejected(self):
        with pytest.raises(ValueError):
            clip_elementwise(pv(1.0), 0.0)


class TestClipL2:
    def test_under_norm_identity(self):
        v = pv(0.18, 0.24)  # norm 0.3
        assert clip_l2(v, 1.0) is v

    def test_scaling_formula(self):
        assert np.allclose(clip_l2(pv(3.0, 4.0), 1.0).values, [0.6, 0.8], atol=1e-12)

    def test_norm_bound_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = ParamVector(rng.normal(scale=3.0, size=5))
            max_norm = float(rng.uniform(0.1, 2.0))
            assert np.linalg.norm(clip_l2(v, max_norm).values) <= max_norm + 1e-9

    def test_preserves_direction(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            raw = rng.normal(size=6)
            v = ParamVector(raw)
            out = clip_l2(v, 0.5)
            cos = float(np.dot(v.values, out.values) / (np.linalg.norm(v.values) * np.linalg.norm(out.values)))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_norm_rejected(self):
        with pytest.raises(ValueError):
            clip_l2(pv(1.0), -1.0)
