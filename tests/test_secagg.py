import numpy as np
import pytest
from scipy import stats

from fedmesh.orchestrator import SecAggConfig
from fedmesh.params import ParamVector
from fedmesh.secagg import (
    FixedPointCodec,
    aggregate_encrypted,
    decrypt_vector,
    encrypt_update,
    finalize_edge_update,
    keygen,
    release,
    sum_quantized,
)

KEY_BITS = 512  # fast test keys; default stays 1024


@pytest.fixture(scope="module")
def keypair():
    return keygen(KEY_BITS, seed=1234)


@pytest.fixture(scope="module")
def codec():
    return FixedPointCodec(scale=2**20, max_participants=64)


class TestPaillierCore:
    def test_encrypt_decrypt_zero(self, keypair):
        public, private = keypair
        assert private.decrypt(public.raw_encrypt(0)) == 0

    def test_additive_homomorphism(self, keypair):
        public, private = keypair
        c = public.add(public.raw_encrypt(3), public.raw_encrypt(4))
        assert private.decrypt(c) == 7

    def test_round_trip_sweep(self, keypair):
        public, private = keypair
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(0, 2**60))
            assert private.decrypt(public.raw_encrypt(m)) == m

    def test_scalar_mul(self, keypair):
        public, private = keypair
        c = public.scalar_mul(public.raw_encrypt(21), 4)
        assert private.decrypt(c) == 84

    def test_keygen_deterministic(self):
        pub_a, _ = keygen(KEY_BITS, seed=7)
        pub_b, _ = keygen(KEY_BITS, seed=7)
        pub_c, _ = keygen(KEY_BITS, seed=8)
        assert pub_a.n == pub_b.n
        assert pub_a.n != pub_c.n

    def test_modulus_size(self, keypair):
        assert keypair[0].n.bit_length() == KEY_BITS

    def test_tiny_keys_rejected(self):
        with pytest.raises(ValueError):
            keygen(8, seed=0)


class TestCodec:
    def test_signed_encoding(self, keypair):
        public, _ = keypair
        codec = FixedPointCodec(scale=1000)
        assert codec.encode(0.5, public.n) == 500
        assert codec.encode(-0.25, public.n) == public.n - 250

    def test_round_trip_error_bound(self, keypair):
        public, _ = keypair
        codec = FixedPointCodec(scale=2**20)
        rng = np.random.default_rng(1)
        for x in rng.uniform(-10, 10, size=200):
            decoded = codec.decode(codec.encode(float(x), public.n), public.n)
            assert abs(decoded - x) <= 0.5 / codec.scale


class TestEncryptUpdate:
    def test_zero_vector_round_trip(self, keypair, codec):
        public, private = keypair
        cv = encrypt_update(ParamVector(np.zeros(5)), codec, public)
        assert np.array_equal(decrypt_vector(cv, private, codec), np.zeros(5))

    def test_random_round_trip_error(self, keypair, codec):
        public, private = keypair
        rng = np.random.default_rng(2)
        v = ParamVector(rng.uniform(-5, 5, size=12))
        out = decrypt_vector(encrypt_update(v, codec, public), private, codec)
        assert np.max(np.abs(out - v.values)) <= 0.5 / codec.scale

    def test_semantic_distinctness(self, keypair, codec):
        public, private = keypair
        v = ParamVector(np.array([0.75, -1.5]))
        a = encrypt_update(v, codec, public)
        b = encrypt_update(v, codec, public)
        assert all(ca != cb for ca, cb in zip(a.ciphertexts, b.ciphertexts))
        assert np.array_equal(decrypt_vector(a, private, codec), decrypt_vector(b, private, codec))

    def test_overflow_names_element(self, keypair):
        public, _ = keypair
        tight = FixedPointCodec(scale=2**20, max_participants=2**500)
        with pytest.raises(OverflowError, match="element 1"):
            encrypt_update(ParamVector(np.array([0.0, 99.0])), tight, public)


class TestAggregateEncrypted:
    def test_single_update_identity(self, keypair, codec):
        public, private = keypair
        v = ParamVector(np.array([1.25, -2.5]))
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public)
        assert np.allclose(decrypt_vector(agg, private, codec), v.values, atol=0.5 / codec.scale)

    def test_three_constant_vectors(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=100)
        cvs = [
            encrypt_update(ParamVector(np.array([float(k), float(k)])), codec, public)
            for k in (1, 2, 3)
        ]
        agg = aggregate_encrypted(cvs, public)
        assert np.allclose(decrypt_vector(agg, private, codec), [6.0, 6.0], atol=3 * 0.5 / 100)

    def test_matches_plaintext_sum_oracle(self, keypair, codec):
        public, private = keypair
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 10))
            vs = [rng.uniform(-3, 3, size=dim) for _ in range(k)]
            cvs = [encrypt_update(ParamVector(v), codec, public) for v in vs]
            got = decrypt_vector(aggregate_encrypted(cvs, public), private, codec)
            expected = [sum(v[i] for v in vs) for i in range(dim)]
            assert np.max(np.abs(got - expected)) <= k * 0.5 / codec.scale

    def test_weighted_aggregation(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=2**20, max_participants=1000)
        vs = [np.array([1.0, -0.5]), np.array([0.25, 2.0])]
        weights = [3, 7]
        cvs = [encrypt_update(ParamVector(v), codec, public) for v in vs]
        got = decrypt_vector(aggregate_encrypted(cvs, public, weights=weights), private, codec)
        expected = 3 * vs[0] + 7 * vs[1]
        assert np.max(np.abs(got - expected)) <= sum(weights) * 0.5 / codec.scale

    def test_order_independent(self, keypair, codec):
        public, _ = keypair
        rng = np.random.default_rng(4)
        cvs = [encrypt_update(ParamVector(rng.uniform(-1, 1, 4)), codec, public) for _ in range(5)]
        forward = aggregate_encrypted(cvs, public)
        backward = aggregate_encrypted(list(reversed(cvs)), public)
        assert forward.ciphertexts == backward.ciphertexts

    def test_validation(self, keypair, codec):
        public, _ = keypair
        a = encrypt_update(ParamVector(np.zeros(2)), codec, public)
        b = encrypt_update(ParamVector(np.zeros(3)), codec, public)
        with pytest.raises(ValueError):
            aggregate_encrypted([], public)
        with pytest.raises(ValueError):
            aggregate_encrypted([a, b], public)
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, max_participants=1)
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, weights=[1])
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, weights=[1, -2])


class TestSumQuantized:
    def test_equals_decrypted_ciphertext_sum(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=2**20, max_participants=1000)
        rng = np.random.default_rng(6)
        for weights in (None, [3, 7, 1]):
            vs = [ParamVector(rng.uniform(-3, 3, size=6)) for _ in range(3)]
            cvs = [encrypt_update(v, codec, public) for v in vs]
            decrypted = decrypt_vector(aggregate_encrypted(cvs, public, weights=weights), private, codec)
            assert sum_quantized(vs, codec, weights).tobytes() == decrypted.tobytes()

    def test_validation(self, codec):
        a, b = ParamVector(np.zeros(2)), ParamVector(np.zeros(3))
        with pytest.raises(ValueError):
            sum_quantized([a, b], codec)
        with pytest.raises(ValueError):
            sum_quantized([a, a], codec, weights=[1])


class TestFinalize:
    def test_noiseless_single_participant_round_trip(self, keypair, codec):
        public, private = keypair
        rng = np.random.default_rng(5)
        v = ParamVector(rng.uniform(-0.3, 0.3, size=8))
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public)
        out = finalize_edge_update(
            agg, private, codec, divisor=1, clip_val=10.0, noise_multiplier=0.0, mechanism="gaussian", seed=0
        )
        assert np.max(np.abs(out.values - v.values)) <= 0.5 / codec.scale

    def test_mean_of_participants(self, keypair, codec):
        public, private = keypair
        vs = [np.full(3, 1.0), np.full(3, 2.0), np.full(3, 6.0)]
        cvs = [encrypt_update(ParamVector(v), codec, public) for v in vs]
        out = finalize_edge_update(
            aggregate_encrypted(cvs, public), private, codec, divisor=3,
            clip_val=100.0, noise_multiplier=0.0, mechanism="gaussian", seed=0,
        )
        assert np.allclose(out.values, [3.0, 3.0, 3.0], atol=0.5 / codec.scale)

    def test_clipping_precedes_noise(self, keypair, codec):
        # sigma=0 on a large aggregate: output norm must already be clipped
        public, private = keypair
        v = ParamVector(np.full(4, 5.0))  # norm 10
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public)
        out = finalize_edge_update(
            agg, private, codec, divisor=1, clip_val=1.0, noise_multiplier=0.0, mechanism="gaussian", seed=0
        )
        assert np.linalg.norm(out.values) <= 1.0 + 1e-9

    def test_noise_std_monte_carlo(self, keypair, codec):
        # 10 draws of a 1000-dim zero aggregate give 10k noise samples
        public, private = keypair
        dim, count, sigma, clip_val = 1000, 10, 1.0, 1.0
        agg = aggregate_encrypted([encrypt_update(ParamVector(np.zeros(dim)), codec, public)], public)
        samples = np.concatenate(
            [
                finalize_edge_update(
                    agg, private, codec, divisor=count, clip_val=clip_val,
                    noise_multiplier=sigma, mechanism="gaussian", seed=seed,
                ).values
                for seed in range(10)
            ]
        )
        target = sigma * clip_val / count
        assert abs(float(samples.std()) - target) / target < 0.05

    def test_deterministic_given_seed(self, keypair, codec):
        public, private = keypair
        v = ParamVector(np.full(5, 0.2))
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public)
        a = finalize_edge_update(agg, private, codec, 1, 1.0, 0.5, "gaussian", seed=42)
        b = finalize_edge_update(agg, private, codec, 1, 1.0, 0.5, "gaussian", seed=42)
        assert np.array_equal(a.values, b.values)


class TestDpNoise:
    # a zero total never reaches the clip, so release returns the noise draws themselves
    def test_gaussian_passes_ks(self):
        noise = release(np.zeros(10_000), 10, clip_val=1.0, noise_multiplier=1.0, mechanism="gaussian", seed=3)
        _, p_value = stats.kstest(noise.values, "norm", args=(0.0, 1.0 / 10))
        assert p_value > 0.001

    def test_laplace_passes_ks(self):
        noise = release(np.zeros(10_000), 4, clip_val=2.0, noise_multiplier=1.0, mechanism="laplace", seed=4)
        scale = 1.0 * 2.0 / 4 / np.sqrt(2.0)  # std matched to the gaussian calibration
        _, p_value = stats.kstest(noise.values, "laplace", args=(0.0, scale))
        assert p_value > 0.001

    def test_zero_multiplier_is_silent(self):
        out = release(np.zeros(100), 5, clip_val=1.0, noise_multiplier=0.0, mechanism="gaussian", seed=0)
        assert np.array_equal(out.values, np.zeros(100))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SecAggConfig(clip_val=0.0)
        with pytest.raises(ValueError):
            SecAggConfig(noise_multiplier=-1.0)
        with pytest.raises(ValueError):
            SecAggConfig(mechanism="uniform")
        with pytest.raises(ValueError):
            release(np.zeros(3), 1, clip_val=1.0, noise_multiplier=0.0, mechanism="uniform", seed=0)
        with pytest.raises(ValueError):
            release(np.zeros(3), 0, clip_val=1.0, noise_multiplier=0.0, mechanism="gaussian", seed=0)
