import errno
import functools
import math
import os
import random
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import fedmesh.secagg
from fedmesh.params import ParamVector
from fedmesh.secagg import (
    FixedPointCodec,
    KeyGenerationError,
    PaillierPublicKey,
    SecAggConfig,
    _FixedBaseComb,
    _gen_prime,
    _KeyWorker,
    _miller_rabin_rounds,
    _pow_n_mod_n_sq,
    aggregate_encrypted,
    decrypt_vector,
    edge_keys,
    encrypt_update,
    finalize_edge_update,
    keygen,
    release,
    sum_quantized,
)

KEY_BITS = 512  # fast test keys; default stays 1024


def stacked(vectors):
    return np.stack([v.values for v in vectors])


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

    def test_negative_scalar_rejected(self, keypair):
        public, _ = keypair
        with pytest.raises(ValueError, match="^scalar must be a nonnegative integer$"):
            public.scalar_mul(public.raw_encrypt(21), -1)

    def test_ciphertext_out_of_range_rejected(self, keypair):
        public, private = keypair
        for c in (-1, public.n_sq, public.n_sq + 5):
            with pytest.raises(ValueError, match="^ciphertext out of range$"):
                private.decrypt(c)

    def test_a_key_needs_its_randomizer_source(self, keypair):
        with pytest.raises(TypeError):
            PaillierPublicKey(keypair[0].n, keypair[0].h_s)

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

    @pytest.mark.parametrize("bits", [17, 64, 511, 512])
    def test_exact_modulus_sizes(self, bits):
        public, private = keygen(bits, seed=bits)
        assert public.n.bit_length() == bits
        assert private.p != private.q and private.p * private.q == public.n
        assert keygen(bits, seed=bits)[0].n == public.n

    @given(st.integers(16, 256), st.integers())
    @settings(max_examples=100, deadline=None)
    def test_crt_constants_equal_their_definition(self, bits, seed):
        # h_p = L_p(g^(p-1) mod p^2)^-1 mod p with g = n + 1 and L_p(x) = (x - 1) / p, likewise h_q
        public, private = keygen(bits, seed)
        for prime, constant in ((private.p, private._hp), (private.q, private._hq)):
            l_p = (pow(1 + public.n, prime - 1, prime * prime) - 1) // prime
            assert constant == pow(l_p, -1, prime)


def dlp_bound(k, t):
    """The least of Damgard, Landrock and Pomerance's bounds on p_{k,t}, the
    chance that a random odd k-bit integer passing t Miller-Rabin rounds is
    composite (Math. Comp. 61, 1993); 1 where none of them applies."""
    bounds = [1.0]
    if t == 1 and k >= 2:
        bounds.append(k**2 * 4 ** (2 - math.sqrt(k)))
    if (t == 2 and k >= 88) or (3 <= t <= k / 9 and k >= 21):
        bounds.append(k**1.5 * 2**t / math.sqrt(t) * 4 ** (2 - math.sqrt(t * k)))
    if k / 9 <= t <= k / 4 and k >= 21:
        bounds.append(
            7 / 20 * k * 2 ** (-5 * t) + 1 / 7 * k ** (15 / 4) * 2 ** (-k / 2 - 2 * t) + 12 * k * 2 ** (-k / 4 - 3 * t)
        )
    if t >= k / 4 and k >= 21:
        bounds.append(1 / 7 * k ** (15 / 4) * 2 ** (-k / 2 - 2 * t))
    return min(bounds)


class TestMillerRabinRounds:
    @pytest.mark.parametrize("bits,rounds", [(128, 31), (256, 18), (512, 8), (1024, 4)])
    def test_least_rounds_within_the_bound(self, bits, rounds):
        assert _miller_rabin_rounds(bits) == rounds
        assert dlp_bound(bits, rounds) <= 2**-102
        assert all(dlp_bound(bits, t) > 2**-102 for t in range(1, rounds))

    @pytest.mark.parametrize("bits", [8, 32])
    def test_tiny_primes_keep_forty(self, bits):
        assert _miller_rabin_rounds(bits) == 40
        assert all(dlp_bound(bits, t) > 2**-102 for t in range(1, 41))

    def test_every_size_matches_the_oracle(self):
        for bits in range(2, 1100):
            least = next((t for t in range(1, 41) if dlp_bound(bits, t) <= 2**-102), 40)
            assert _miller_rabin_rounds(bits) == least, bits

    @pytest.mark.parametrize("bits", [32, 128, 256, 512])
    def test_a_prime_runs_every_round(self, bits):
        draws = []

        class CountingRandom(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        prime = _gen_prime(bits, random.Random(bits))
        assert fedmesh.secagg._is_probable_prime(prime, CountingRandom(0))
        assert len(draws) == _miller_rabin_rounds(bits)


@functools.cache
def _seed_3_keypair(bits):
    return keygen(bits, seed=3)


@functools.cache
def _comb_key(bits):
    public = _seed_3_keypair(bits)[0]
    return public, _FixedBaseComb(public.h_s, bits + 128, public.n_sq)


class TestFixedBaseComb:
    # at 17 bits the 145-bit exponents fill 32 chunks of 5 bits only after 15 bits of zero padding
    @pytest.mark.parametrize("bits", [17, 256, 1024])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_pow(self, bits, data):
        public, comb = _comb_key(bits)
        assert [len(table) for table in comb.tables] == [256] * 4
        assert comb.width == -(-(bits + 128) // 32)
        top = 2 ** (bits + 128) - 1
        a = data.draw(st.sampled_from([0, 1, top]) | st.integers(0, top))
        assert comb.pow(a) == pow(public.h_s, a, public.n_sq)

    @pytest.mark.parametrize("bits", [17, 256])
    def test_randomizers_are_powers_of_h_s(self, bits, monkeypatch):
        seeds, source = [], fedmesh.secagg._comb_randomizers
        monkeypatch.setattr(
            fedmesh.secagg, "_comb_randomizers", lambda h_s, n, seed: seeds.append(seed) or source(h_s, n, seed)
        )
        public, private = keygen(bits, seed=bits)
        [seed] = seeds
        shadow = random.Random(seed)
        for m in (0, 1, public.n - 1):
            a = shadow.getrandbits(bits + 128)
            c = public.raw_encrypt(m)
            assert c == (1 + m * public.n) * pow(public.h_s, a, public.n_sq) % public.n_sq
            assert private.decrypt(c) == m


class TestRandomizerBase:
    @pytest.mark.parametrize("bits", [17, 256, 1024])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_crt_power_equals_pow(self, bits, data):
        public, private = _seed_3_keypair(bits)
        n_sq = public.n_sq
        h = data.draw(st.sampled_from([0, 1, public.n - 1, n_sq - 1]) | st.integers(0, n_sq - 1))
        assert _pow_n_mod_n_sq(h, private.p, private.q) == pow(h, public.n, n_sq)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


fork_only = pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"), reason="needs fork")


@fork_only
class TestKeyWorker:
    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)

    @pytest.mark.parametrize(
        "error,message",
        [(KeyGenerationError, "no 3-bit prime found after 7 candidates"), (ValueError, "key_bits too small: 8")],
        ids=["keygen_error", "value_error"],
    )
    def test_keygen_exception_reaches_caller(self, monkeypatch, error, message):
        def failing_keygen(key_bits, seed):
            if seed == 2:
                raise error(message)
            return keygen(key_bits, seed)

        monkeypatch.setattr(fedmesh.secagg, "keygen", failing_keygen)
        before = _open_fds()
        with edge_keys(256, [1, 2, 3], 1) as keypairs:
            public, private = keypairs[0]()
            assert private.decrypt(public.raw_encrypt(5)) == 5
            with pytest.raises(error) as raised:
                keypairs[1]()
            assert type(raised.value) is error and str(raised.value) == message
            public, private = keypairs[2]()
            assert private.decrypt(public.raw_encrypt(6)) == 6
        assert _open_fds() == before
        _assert_no_child_left()

    def test_main_process_exception_kills_and_reaps_every_worker(self):
        before = _open_fds()
        with pytest.raises(ValueError, match="out of ring range"), edge_keys(256, [4, 5, 6], 3) as keypairs:
            public, _ = keypairs[1]()
            public.raw_encrypt(public.n)
        assert _open_fds() == before
        _assert_no_child_left()

    def test_worker_keypair_equals_serial(self):
        seeds = [11, 12, 13]
        with edge_keys(256, seeds, 4) as keypairs:
            for keypair, seed in zip(keypairs, seeds):
                pub, priv = keypair()
                serial_pub, serial_priv = keygen(256, seed)
                assert (pub.n, pub.h_s, priv.p, priv.q) == (serial_pub.n, serial_pub.h_s, serial_priv.p, serial_priv.q)
                assert priv.public_key is pub and keypair() == (pub, priv)
                assert [pub.raw_encrypt(m) for m in range(4)] == [serial_pub.raw_encrypt(m) for m in range(4)]
        _assert_no_child_left()

    def test_main_copy_draws_no_exponent(self):
        with edge_keys(256, [7], 1) as keypairs:
            public, private = keypairs[0]()
            assert private.decrypt(public.raw_encrypt(3)) == 3
            worker = keypairs[0].__self__  # the key's randomizers come from its worker alone, with no comb here
            assert public.randomizer == worker.take
        # the worker is gone, and its key refuses to encrypt
        with pytest.raises(RuntimeError, match=rf"^key worker {worker.pid} is closed$"):
            public.raw_encrypt(3)
        _assert_no_child_left()

    def test_each_worker_alone_holds_its_pipe_ends(self):
        # a worker with more randomizers to write than its pipe holds fails its write, and
        # exits, once its parent's read end closes; that needs every later worker (alive here,
        # blocked on its own full pipe) to have closed the copy of that end it inherited, or
        # the first worker blocks on a full pipe
        first = _KeyWorker(256, 1, 10**6, [])
        second = _KeyWorker(256, 2, 10**6, [first])
        reaped = False
        try:
            first.keypair()
            first._results.close()
            deadline = time.monotonic() + 10
            while not reaped:
                assert time.monotonic() < deadline, "the first worker never saw its reader go"
                reaped = os.waitpid(first.pid, os.WNOHANG)[0] == first.pid
                time.sleep(0.01)
        finally:
            if not reaped:
                os.kill(first.pid, signal.SIGKILL)
                os.waitpid(first.pid, 0)
            first._results.close()
            second.close()
        _assert_no_child_left()

    def test_worker_runs_at_idle_priority(self):
        worker = _KeyWorker(256, 3, 10**6, [])
        try:
            public, _ = worker.keypair()  # the worker sets its priority before it makes the key
            assert os.getpriority(os.PRIO_PROCESS, worker.pid) == 19
            assert public.raw_encrypt(1) == keygen(256, 3)[0].raw_encrypt(1)
        finally:
            worker.close()
        _assert_no_child_left()

    def test_gone_worker_is_a_child_process_error(self):
        with edge_keys(256, [8], 0) as keypairs:
            public, _ = keypairs[0]()
            os.kill(keypairs[0].__self__.pid, signal.SIGKILL)
            with pytest.raises(ChildProcessError, match="exited early"):
                public.raw_encrypt(1)
        _assert_no_child_left()

    def test_one_core_makes_keys_in_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        serial, _ = keygen(256, 9)
        with edge_keys(256, [9], 4) as keypairs:
            public, _ = keypairs[0]()
            assert not isinstance(getattr(public.randomizer, "__self__", None), _KeyWorker)
            assert keypairs[0]()[0] is public
            assert [public.raw_encrypt(m) for m in (2, 3)] == [serial.raw_encrypt(m) for m in (2, 3)]

    @pytest.mark.parametrize("call,failing", [("fork", 3), ("pipe", 3)], ids=["fork", "pipe"])
    def test_worker_that_cannot_start_leaves_the_rest_in_process(self, monkeypatch, call, failing):
        # the 3rd of 5 workers fails at its os.fork or its os.pipe
        calls, real = [], getattr(os, call)

        def exhausted():
            calls.append(call)
            if len(calls) == failing:
                raise OSError(errno.EMFILE, "Too many open files")
            return real()

        monkeypatch.setattr(os, call, exhausted)
        seeds = [21, 22, 23, 24, 25]
        before = _open_fds()
        with edge_keys(256, seeds, 4) as keypairs:
            assert len(calls) == failing  # no worker is tried after the first that failed
            assert [isinstance(getattr(k, "__self__", None), _KeyWorker) for k in keypairs] == [True] * 2 + [False] * 3
            for keypair, seed in zip(keypairs, seeds):
                (public, private), (serial, _) = keypair(), keygen(256, seed)
                assert (public.n, public.h_s, private.public_key) == (serial.n, serial.h_s, public)
                assert [public.raw_encrypt(m) for m in range(4)] == [serial.raw_encrypt(m) for m in range(4)]
        assert _open_fds() == before
        _assert_no_child_left()


@fork_only
class TestPrecomputedRandomizers:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_ciphertexts_equal_serial_ones(self, data):
        count = data.draw(st.integers(0, 12))
        messages = data.draw(st.lists(st.integers(0, 2**200), max_size=count))
        serial, _ = keygen(256, seed=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
            with edge_keys(256, [5], count) as keypairs:
                batched, _ = keypairs[0]()
                assert [batched.raw_encrypt(m) for m in messages] == [serial.raw_encrypt(m) for m in messages]
                if len(messages) == count:  # the budget is spent: the worker has exited
                    with pytest.raises(ChildProcessError, match="exited early"):
                        batched.raw_encrypt(1)

    def test_refused_plaintext_keeps_the_randomizer(self, monkeypatch):
        monkeypatch.setattr(fedmesh.secagg, "_usable_cores", lambda: 2)
        serial, _ = keygen(256, seed=5)
        with edge_keys(256, [5], 3) as keypairs:
            public, private = keypairs[0]()
            with pytest.raises(ValueError, match="out of ring range"):
                public.raw_encrypt(public.n)
            assert public.raw_encrypt(9) == serial.raw_encrypt(9)
            assert private.decrypt(public.raw_encrypt(9)) == 9


class TestCodec:
    def test_signed_encoding(self, keypair):
        # two signed slots in one plaintext: m = 500 + (-250) * 2^width mod n
        public, private = keypair
        codec = FixedPointCodec(scale=1000, max_participants=64)
        slots, width = codec.layout(public.n.bit_length())
        cv = encrypt_update(ParamVector(np.array([0.5, -0.25])), codec, public)
        assert cv.dim == 1 and slots >= 2
        assert private.decrypt(cv.ciphertexts[0]) == (500 - (250 << width)) % public.n
        assert decrypt_vector(cv, private, codec).tolist() == [0.5, -0.25]

    def test_round_trip_error_bound(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=2**20, max_participants=64)
        rng = np.random.default_rng(1)
        x = rng.uniform(-10, 10, size=200)
        decoded = decrypt_vector(encrypt_update(ParamVector(x), codec, public), private, codec)
        assert np.max(np.abs(decoded - x)) <= 0.5 / codec.scale

    @pytest.mark.parametrize("scale,max_participants", [(0, 64), (-1, 64), (2**20, 0), (2**20, -3)])
    def test_nonpositive_parameters_rejected(self, scale, max_participants):
        with pytest.raises(ValueError, match="^scale and max_participants must be positive$"):
            FixedPointCodec(scale=scale, max_participants=max_participants)

    def test_layout(self):
        # need = 21 + 7 + 12 = 40 bits; a 2**500 participant bound leaves one slot
        codec = FixedPointCodec(scale=2**20, max_participants=64)
        assert codec.layout(1024) == (25, 40)
        assert codec.layout(512) == (12, 42)
        assert FixedPointCodec(scale=2**20, max_participants=2**500).layout(512) == (1, 510)


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
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public, codec, [1])
        assert np.allclose(decrypt_vector(agg, private, codec), v.values, atol=0.5 / codec.scale)

    def test_three_constant_vectors(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=100, max_participants=64)
        cvs = [
            encrypt_update(ParamVector(np.array([float(k), float(k)])), codec, public)
            for k in (1, 2, 3)
        ]
        agg = aggregate_encrypted(cvs, public, codec, [1, 1, 1])
        assert np.allclose(decrypt_vector(agg, private, codec), [6.0, 6.0], atol=3 * 0.5 / 100)

    def test_matches_plaintext_sum_oracle(self, keypair, codec):
        public, private = keypair
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 10))
            vs = [rng.uniform(-3, 3, size=dim) for _ in range(k)]
            cvs = [encrypt_update(ParamVector(v), codec, public) for v in vs]
            got = decrypt_vector(aggregate_encrypted(cvs, public, codec, [1] * k), private, codec)
            expected = [sum(v[i] for v in vs) for i in range(dim)]
            assert np.max(np.abs(got - expected)) <= k * 0.5 / codec.scale

    def test_weighted_aggregation(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=2**20, max_participants=1000)
        vs = [np.array([1.0, -0.5]), np.array([0.25, 2.0])]
        weights = [3, 7]
        cvs = [encrypt_update(ParamVector(v), codec, public) for v in vs]
        got = decrypt_vector(aggregate_encrypted(cvs, public, codec, weights=weights), private, codec)
        expected = 3 * vs[0] + 7 * vs[1]
        assert np.max(np.abs(got - expected)) <= sum(weights) * 0.5 / codec.scale

    def test_order_independent(self, keypair, codec):
        public, _ = keypair
        rng = np.random.default_rng(4)
        cvs = [encrypt_update(ParamVector(rng.uniform(-1, 1, 4)), codec, public) for _ in range(5)]
        forward = aggregate_encrypted(cvs, public, codec, [1] * 5)
        backward = aggregate_encrypted(list(reversed(cvs)), public, codec, [1] * 5)
        assert forward.ciphertexts == backward.ciphertexts

    def test_validation(self, keypair, codec):
        public, _ = keypair
        a = encrypt_update(ParamVector(np.zeros(2)), codec, public)
        b = encrypt_update(ParamVector(np.zeros(3)), codec, public)
        with pytest.raises(ValueError):
            aggregate_encrypted([], public, codec, [])
        with pytest.raises(ValueError):
            aggregate_encrypted([a, b], public, codec, [1, 1])
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, FixedPointCodec(scale=2**20, max_participants=1), [1, 1])
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, codec, weights=[1])
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, codec, weights=[1, -2])
        with pytest.raises(ValueError):
            aggregate_encrypted([a, a], public, codec, weights=[60, 5])

    def test_refuses_more_updates_than_the_codec_bounds(self, keypair):
        # the codec packed each slot for a total weight of two, so a third unit could carry out of it
        # and wrap; zero-weight updates add nothing, so the weights' sum alone is bounded
        public, private = keypair
        codec = FixedPointCodec(scale=2**20, max_participants=2)
        _, width = codec.layout(public.n.bit_length())
        peak = (2 ** (width - 2) - 1) / codec.scale  # the largest value the headroom admits
        vs = [ParamVector(np.array([peak, -peak])) for _ in range(5)]
        cvs = [encrypt_update(v, codec, public) for v in vs]
        pair = decrypt_vector(aggregate_encrypted(cvs, public, codec, [1, 1, 0, 0, 0]), private, codec)
        assert pair.tolist() == [2 * peak, -2 * peak]
        assert pair.tobytes() == sum_quantized(stacked(vs), codec, KEY_BITS, [1, 1, 0, 0, 0]).tobytes()
        with pytest.raises(ValueError, match="^weights sum to 3, above max participants 2$"):
            aggregate_encrypted(cvs, public, codec, [1, 1, 1, 0, 0])


class TestSumQuantized:
    def test_equals_decrypted_ciphertext_sum(self, keypair):
        public, private = keypair
        codec = FixedPointCodec(scale=2**20, max_participants=1000)
        rng = np.random.default_rng(6)
        for weights in ([1, 1, 1], [3, 7, 1]):
            vs = [ParamVector(rng.uniform(-3, 3, size=6)) for _ in range(3)]
            cvs = [encrypt_update(v, codec, public) for v in vs]
            decrypted = decrypt_vector(aggregate_encrypted(cvs, public, codec, weights=weights), private, codec)
            assert sum_quantized(stacked(vs), codec, KEY_BITS, weights).tobytes() == decrypted.tobytes()

    def test_validation(self, codec):
        with pytest.raises(ValueError, match="one per row"):
            sum_quantized(np.zeros(3), codec, KEY_BITS, [1])
        with pytest.raises(ValueError, match="at least one"):
            sum_quantized(np.zeros((0, 3)), codec, KEY_BITS, [])
        with pytest.raises(ValueError):
            sum_quantized(np.zeros((2, 3)), codec, KEY_BITS, weights=[1])
        with pytest.raises(ValueError):
            sum_quantized(np.zeros((2, 3)), codec, KEY_BITS, weights=[60, 5])


PROPERTY_CODEC = FixedPointCodec(scale=2**20, max_participants=64)


@st.composite
def packed_sums(draw):
    """Updates of quantized values up to the slot bound, with unit weights or
    weights whose total stays within the codec's participant bound."""
    _, width = PROPERTY_CODEC.layout(KEY_BITS)
    bound = ((1 << (width - 1)) - 1) // PROPERTY_CODEC.max_participants
    dim = draw(st.integers(1, 60))
    count = draw(st.integers(1, 10))
    row = st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=count, max_size=count))
    weights = draw(st.just([1] * count) | st.lists(st.integers(0, 6), min_size=count, max_size=count))
    return rows, weights


class TestPackedProperties:
    @given(packed_sums())
    @settings(max_examples=25, deadline=None)
    def test_encrypted_sum_equals_plaintext_sum(self, keypair, case):
        public, private = keypair
        rows, weights = case
        codec = PROPERTY_CODEC
        vs = [ParamVector(np.array(row, dtype=float) / codec.scale) for row in rows]
        cvs = [encrypt_update(v, codec, public) for v in vs]
        agg = aggregate_encrypted(cvs, public, codec, weights)
        decrypted = decrypt_vector(agg, private, codec)
        assert decrypted.tobytes() == sum_quantized(stacked(vs), codec, KEY_BITS, weights).tobytes()
        exact = [sum(w * q for w, q in zip(weights, column)) / codec.scale for column in zip(*rows)]
        assert decrypted.tolist() == exact
        slots, _ = codec.layout(KEY_BITS)
        assert {cv.dim for cv in cvs} == {agg.dim} == {math.ceil(len(rows[0]) / slots)}

    @given(packed_sums(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_one_quantum_past_the_bound_is_refused(self, keypair, case, data):
        public, _ = keypair
        rows, _ = case
        codec = PROPERTY_CODEC
        _, width = codec.layout(KEY_BITS)
        refused = -((-1 << (width - 1)) // codec.max_participants)  # least |q| with |q| * max >= 2^(width-1)
        bad_update = data.draw(st.integers(0, len(rows) - 1))
        bad_element = data.draw(st.integers(0, len(rows[0]) - 1))
        sign = data.draw(st.sampled_from([1, -1]))
        rows[bad_update][bad_element] = sign * refused
        vs = [ParamVector(np.array(row, dtype=float) / codec.scale) for row in rows]
        with pytest.raises(OverflowError, match=f"element {bad_element} ") as encrypted:
            for v in vs:
                encrypt_update(v, codec, public)
        with pytest.raises(OverflowError) as plain:
            sum_quantized(stacked(vs), codec, KEY_BITS, [1] * len(vs))
        assert str(plain.value) == str(encrypted.value)
        assert plain.value.row == bad_update
        rows[bad_update][bad_element] = sign * (refused - 1)  # the last value the bound admits
        encrypt_update(ParamVector(np.array(rows[bad_update], dtype=float) / codec.scale), codec, public)


@st.composite
def int64_edge_sums(draw):
    """Updates whose quantized values reach the headroom bound (and one past it), for
    keys whose slots are 64 bits wide (the widest int64 sums cover), 63 and 42."""
    key_bits = draw(st.sampled_from([66, 130, 512]))
    codec = FixedPointCodec(scale=2**20, max_participants=64)
    _, width = codec.layout(key_bits)
    admitted = -(-(1 << (width - 1)) // codec.max_participants) - 1  # the largest |q| the bound admits
    dim, count = draw(st.integers(1, 8)), draw(st.integers(1, codec.max_participants))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(-admitted, admitted, size=(count, dim), endpoint=True)
    at_bound = rng.random((count, dim)) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    rows[at_bound] = admitted * rng.choice([-1, 1], size=int(at_bound.sum()))
    if draw(st.booleans()):  # one quantum past the bound
        at = draw(st.integers(0, count - 1)), draw(st.integers(0, dim - 1))
        rows[at] = draw(st.sampled_from([1, -1])) * (admitted + 1)
    cap = codec.max_participants // count
    weights = draw(st.just([1] * count) | st.just(rng.integers(0, cap, size=count, endpoint=True).tolist()))
    return codec, key_bits, rows.astype(float) / codec.scale, weights


class TestArrayQuantization:
    """The array quantizer and int64 sums against the per-element Python definitions."""

    @given(
        st.lists(st.integers(-(2**52), 2**52 - 1), min_size=1, max_size=20),
        st.integers(0, 40),
        st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=20),
        st.sampled_from([1, 3, 1000, 2**20, 10**6 + 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_rint_equals_round(self, ks, shift, xs, scale):
        # exact .5 ties: (k + 0.5) / 2^shift times 2^shift is k + 0.5 exactly, and both round it to even
        ties = np.array([(k + 0.5) / 2**shift for k in ks])
        got = FixedPointCodec(scale=2**shift, max_participants=64).quantize(ties)
        assert [int(q) for q in got.tolist()] == [round(t * 2**shift) for t in ties.tolist()]
        got = FixedPointCodec(scale=scale, max_participants=64).quantize(np.array(xs))
        assert [int(q) for q in got.tolist()] == [round(x * scale) for x in xs]

    @given(int64_edge_sums())
    @settings(max_examples=200, deadline=None)
    def test_int64_sum_equals_python_int_sum(self, case):
        codec, key_bits, updates, weights = case
        _, width = codec.layout(key_bits)
        outcomes = []
        for max_width in (fedmesh.secagg._INT64_SUM_MAX_WIDTH, 0):  # int64, then Python ints
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fedmesh.secagg, "_INT64_SUM_MAX_WIDTH", max_width)
                try:
                    outcomes.append(sum_quantized(updates, codec, key_bits, weights).tobytes())
                except OverflowError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        # the per-element oracle: Python round, the exact bound, then Python-int sums
        quantized = [[round(x * codec.scale) for x in row] for row in updates.tolist()]
        refused = [
            (i, x) for row, qs in zip(updates.tolist(), quantized)
            for i, (x, q) in enumerate(zip(row, qs)) if abs(q) * codec.max_participants >= 1 << (width - 1)
        ]
        if refused:
            assert outcomes[0].startswith(f"element {refused[0][0]} ({refused[0][1]}) exceeds the {width}-bit")
        else:
            exact = [sum(w * q for w, q in zip(weights, column)) / codec.scale for column in zip(*quantized)]
            assert outcomes[0] == np.array(exact).tobytes()


class TestFinalize:
    def test_noiseless_single_participant_round_trip(self, keypair, codec):
        public, private = keypair
        rng = np.random.default_rng(5)
        v = ParamVector(rng.uniform(-0.3, 0.3, size=8))
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public, codec, [1])
        out = finalize_edge_update(
            agg, private, codec, divisor=1, config=SecAggConfig(clip_val=10.0, noise_multiplier=0.0), seed=0
        )
        assert np.max(np.abs(out - v.values)) <= 0.5 / codec.scale

    def test_mean_of_participants(self, keypair, codec):
        public, private = keypair
        vs = [np.full(3, 1.0), np.full(3, 2.0), np.full(3, 6.0)]
        cvs = [encrypt_update(ParamVector(v), codec, public) for v in vs]
        out = finalize_edge_update(
            aggregate_encrypted(cvs, public, codec, [1, 1, 1]), private, codec, divisor=3,
            config=SecAggConfig(clip_val=100.0, noise_multiplier=0.0), seed=0,
        )
        assert np.allclose(out, [3.0, 3.0, 3.0], atol=0.5 / codec.scale)

    def test_clipping_precedes_noise(self, keypair, codec):
        # sigma=0 on a large aggregate: output norm must already be clipped
        public, private = keypair
        v = ParamVector(np.full(4, 5.0))  # norm 10
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public, codec, [1])
        out = finalize_edge_update(
            agg, private, codec, divisor=1, config=SecAggConfig(clip_val=1.0, noise_multiplier=0.0), seed=0
        )
        assert np.linalg.norm(out) <= 1.0 + 1e-9

    def test_noise_std_monte_carlo(self, keypair, codec):
        # 10 draws of a 1000-dim zero aggregate give 10k noise samples
        public, private = keypair
        dim, count, sigma, clip_val = 1000, 10, 1.0, 1.0
        agg = aggregate_encrypted([encrypt_update(ParamVector(np.zeros(dim)), codec, public)], public, codec, [1])
        samples = np.concatenate(
            [
                finalize_edge_update(
                    agg, private, codec, divisor=count,
                    config=SecAggConfig(clip_val=clip_val, noise_multiplier=sigma), seed=seed,
                )
                for seed in range(10)
            ]
        )
        target = sigma * clip_val / count
        assert abs(float(samples.std()) - target) / target < 0.05

    def test_deterministic_given_seed(self, keypair, codec):
        public, private = keypair
        v = ParamVector(np.full(5, 0.2))
        agg = aggregate_encrypted([encrypt_update(v, codec, public)], public, codec, [1])
        config = SecAggConfig(clip_val=1.0, noise_multiplier=0.5)
        a = finalize_edge_update(agg, private, codec, 1, config, seed=42)
        b = finalize_edge_update(agg, private, codec, 1, config, seed=42)
        assert np.array_equal(a, b)


class TestClipL2:
    # noiseless releases of divisor 1: the release is the L2 clip of the total alone
    def test_under_norm_identity(self):
        total = np.array([0.18, 0.24])  # norm 0.3
        out = release(total, 1, SecAggConfig(clip_val=1.0, noise_multiplier=0.0), seed=0)
        assert out.tobytes() == total.tobytes()

    def test_scaling_formula(self):
        out = release(np.array([3.0, 4.0]), 1, SecAggConfig(clip_val=1.0, noise_multiplier=0.0), seed=0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-12)

    def test_norm_bound_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            total = rng.normal(scale=3.0, size=5)
            max_norm = float(rng.uniform(0.1, 2.0))
            out = release(total, 1, SecAggConfig(clip_val=max_norm, noise_multiplier=0.0), seed=0)
            assert np.linalg.norm(out) <= max_norm + 1e-9

    def test_preserves_direction(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            raw = rng.normal(size=6)
            out = release(raw, 1, SecAggConfig(clip_val=0.5, noise_multiplier=0.0), seed=0)
            cos = float(np.dot(raw, out) / (np.linalg.norm(raw) * np.linalg.norm(out)))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_norm_rejected(self):
        with pytest.raises(ValueError, match="clip_val"):
            SecAggConfig(clip_val=-1.0, noise_multiplier=0.0)

    def test_null_clip_val_releases_the_mean(self):
        total = np.array([30.0, -40.0, 0.5])  # norm above any default clip
        out = release(total, 2, SecAggConfig(clip_val=None, noise_multiplier=0.0), seed=0)
        assert out.tobytes() == (total / 2).tobytes()


class TestDpNoise:
    # a zero total never reaches the clip, so release returns the noise draws themselves
    def test_gaussian_passes_ks(self):
        noise = release(np.zeros(10_000), 10, SecAggConfig(clip_val=1.0, noise_multiplier=1.0), seed=3)
        _, p_value = stats.kstest(noise, "norm", args=(0.0, 1.0 / 10))
        assert p_value > 0.001

    def test_zero_multiplier_is_silent(self):
        out = release(np.zeros(100), 5, SecAggConfig(clip_val=1.0, noise_multiplier=0.0), seed=0)
        assert np.array_equal(out, np.zeros(100))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SecAggConfig(clip_val=0.0)
        with pytest.raises(ValueError):
            SecAggConfig(noise_multiplier=-1.0)
        with pytest.raises(ValueError):
            release(np.zeros(3), 0, SecAggConfig(clip_val=1.0, noise_multiplier=0.0), seed=0)
