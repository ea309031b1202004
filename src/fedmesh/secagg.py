"""Edge-level privacy pipeline: fixed-point quantization, slot packing,
additively homomorphic encryption, ciphertext-space summation, and clipped
noisy release.

The cryptosystem is Paillier with g = n + 1, implemented over Python big
integers: Enc(m) = (1 + m*n) * r^n mod n^2, so the product of ciphertexts
decrypts to the sum of plaintexts. Key generation draws p and q with their top
two bits set, (bits+1)//2 and bits//2 bits long, so n always has exactly
key_bits bits. Decryption uses the CRT split over p and q for speed;
encryption does not, because an encrypting client does not hold the
factorization. Randomness is drawn from a seeded PRNG so simulations reproduce
bit-for-bit; this trades cryptographic-grade randomness for determinism, which
is the point of the simulator, not a deployment posture.

Real-valued updates are quantized by a fixed-point codec, q = x * scale
rounded half to even, and packed BatchCrypt-style into signed fixed-width
slots: with need = scale.bit_length() + max_participants.bit_length() + 12
bits of value headroom, a b-bit modulus holds k = max(1, (b - 2) // need)
slots of W = (b - 2) // k bits, and the plaintext is
m = sum_j q_j * 2^(W*j) mod n.
Packing is linear, so ciphertext products and scalar powers encrypt the packed
weighted sum, and decryption lifts m to a signed integer and peels balanced
base-2^W digits. An element is refused with OverflowError unless
|q| * max_participants < 2^(W-1), which proves that no slot carries into the
next under max_participants unit-weight additions (and no packed sum wraps the
ring). Encrypted and plaintext sums apply the same bound and share one release
step.

The modular exponentiations run on every usable core. Keys depend only on
their seeds, so several keys are generated in forked processes at once. The
randomizer r^n mod n^2 depends only on the key and on r, never on the
message, so precompute_randomizers draws the next values of r from the key's
seeded PRNG, in the order raw_encrypt would, and computes their powers in
forked processes ahead of the encryptions; every key and ciphertext is
byte-identical to a serial run. The encrypting side still works from n
alone and never uses the factorization. The workers are plain os.fork
children that run only pure-Python big-integer code and pickle, write their
results into a pipe and leave through os._exit. Python 3.12 and later warn
when a process with other threads forks, because a child may inherit a lock
that one of those threads held. The parent's other threads here are numpy's
BLAS pool; a child never calls numpy, BLAS, logging or any other code that
takes such a lock, and os._exit skips atexit handlers and the flushing of
inherited buffers, so that hazard cannot arise.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import pickle
import random
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .params import ParamVector

DEFAULT_KEY_BITS = 1024
DEFAULT_SCALE = 2**20
DEFAULT_MAX_PARTICIPANTS = 64

_MILLER_RABIN_ROUNDS = 40
_KEYGEN_RETRIES = 10_000
_SIEVE_LIMIT = 4096
_SLOT_HEADROOM_BITS = 12
_INT64_SUM_MAX_WIDTH = 64


_T = TypeVar("_T")
_R = TypeVar("_R")


class KeyGenerationError(RuntimeError):
    pass


class HeadroomError(OverflowError):
    """An element that could carry out of its slot; `row` is the update (row of
    the stacked input) that holds it."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _usable_cores() -> int:
    """The cores this process may run on; 1 where fork or the affinity query is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_worker(fn: Callable[[_T], _R], share: list[_T]) -> tuple[int, int]:
    """Fork a child that pickles (True, [fn(x) for x in share]), or (False, the
    exception fn raised), into a pipe and exits 0; returns (pid, read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: pure-Python work, then os._exit whatever happens
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, [fn(x) for x in share])
            except Exception as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _fork_map(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    """[fn(x) for x in items], computed by k = min(usable cores, len(items)) processes.

    Child j (1..k-1) computes items[j::k] and the caller items[0::k]; then the
    caller reads and reaps every child. An exception in a child is raised
    again here with its type and message. With k = 1 nothing forks. fn must
    be pure-Python code (see the module docstring); its results must pickle.
    """
    items = list(items)
    k = min(_usable_cores(), len(items))
    if k <= 1:
        return [fn(x) for x in items]
    workers: list[tuple[int, int]] = []
    outputs: list[tuple[bytes, int]] = []
    try:
        for j in range(1, k):
            workers.append(_fork_worker(fn, items[j::k]))
        shares = [[fn(x) for x in items[0::k]]]
    finally:  # also when the caller's share raised: every child finishes its share and is reaped
        for pid, read_fd in workers:
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
            outputs.append((data, os.waitpid(pid, 0)[1]))
    for data, status in outputs:
        if status != 0:
            raise ChildProcessError(f"fork worker exited with code {os.waitstatus_to_exitcode(status)}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        shares.append(value)
    out: list = [None] * len(items)
    for j, share in enumerate(shares):
        out[j::k] = share
    return out


@functools.cache
def _small_odd_primes() -> tuple[tuple[int, ...], int]:
    """The odd primes below _SIEVE_LIMIT and their product, built on first use."""
    primes = tuple(p for p in range(3, _SIEVE_LIMIT, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
    return primes, math.prod(primes)


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    primes, product = _small_odd_primes()
    if n < _SIEVE_LIMIT:
        return n == 2 or n in primes
    if n % 2 == 0 or math.gcd(n, product) != 1:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng: random.Random) -> int:
    """An odd prime of exactly `bits` bits whose top two bits are set."""
    for _ in range(_KEYGEN_RETRIES):
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found after {_KEYGEN_RETRIES} candidates")


@dataclass
class PaillierPublicKey:
    n: int

    def __post_init__(self) -> None:
        self.n_sq = self.n * self.n
        self._rng = random.Random()
        self._randomizers: collections.deque[int] = collections.deque()

    def seed_obfuscation(self, seed: int) -> None:
        self._rng.seed(seed)

    def precompute_randomizers(self, count: int) -> None:
        """Queue r^n mod n^2 for the next `count` encryptions, computed on every
        usable core; r is drawn from the key's PRNG in encryption order."""
        rs = [self._rng.randrange(1, self.n) for _ in range(count)]
        self._randomizers.extend(_fork_map(functools.partial(pow, exp=self.n, mod=self.n_sq), rs))

    def raw_encrypt(self, m: int) -> int:
        """Encrypt an integer already mapped into [0, n), with the oldest
        precomputed randomizer or, when none is queued, a fresh one."""
        if not 0 <= m < self.n:
            raise ValueError("plaintext out of ring range")
        if self._randomizers:
            rn = self._randomizers.popleft()
        else:
            rn = pow(self._rng.randrange(1, self.n), self.n, self.n_sq)
        # (1+n)^m mod n^2 collapses to 1 + m*n by the binomial theorem
        return (1 + m * self.n) % self.n_sq * rn % self.n_sq

    def add(self, c1: int, c2: int) -> int:
        return c1 * c2 % self.n_sq

    def scalar_mul(self, c: int, k: int) -> int:
        if k < 0:
            raise ValueError("scalar must be a nonnegative integer")
        return pow(c, k, self.n_sq)


@dataclass
class PaillierPrivateKey:
    public_key: PaillierPublicKey
    p: int
    q: int

    def __post_init__(self) -> None:
        n = self.public_key.n
        self._p_sq = self.p * self.p
        self._q_sq = self.q * self.q
        # hp = L_p(g^(p-1) mod p^2)^-1 mod p with g = n + 1, same for q
        self._hp = pow((pow(1 + n, self.p - 1, self._p_sq) - 1) // self.p % self.p, -1, self.p)
        self._hq = pow((pow(1 + n, self.q - 1, self._q_sq) - 1) // self.q % self.q, -1, self.q)
        self._q_inv_p = pow(self.q, -1, self.p)

    def decrypt(self, c: int) -> int:
        if not 0 <= c < self.public_key.n_sq:
            raise ValueError("ciphertext out of range")
        mp = (pow(c, self.p - 1, self._p_sq) - 1) // self.p % self.p * self._hp % self.p
        mq = (pow(c, self.q - 1, self._q_sq) - 1) // self.q % self.q * self._hq % self.q
        return (mp - mq) * self._q_inv_p % self.p * self.q + mq


def keygen(key_bits: int = DEFAULT_KEY_BITS, seed: int = 0) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Deterministic Paillier keypair whose modulus has exactly key_bits bits (>= 16).

    p has (key_bits+1)//2 bits and q has key_bits//2, both with their top two
    bits set, so 2^(key_bits-1) < p*q < 2^key_bits for the first pair drawn.
    """
    if key_bits < 16:
        raise ValueError(f"key_bits too small: {key_bits}")
    rng = random.Random(seed)
    p = _gen_prime((key_bits + 1) // 2, rng)
    q = p
    while q == p:
        q = _gen_prime(key_bits // 2, rng)
    public = PaillierPublicKey(p * q)
    public.seed_obfuscation(rng.getrandbits(64))
    return public, PaillierPrivateKey(public, p, q)


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals to integers, x * scale rounded half to even, and lays them out in slots.

    max_participants bounds the total weight of the values summed before
    decoding; check_headroom refuses elements that could carry out of their
    slot under that much weight.
    """

    scale: int = DEFAULT_SCALE
    max_participants: int = DEFAULT_MAX_PARTICIPANTS

    def __post_init__(self) -> None:
        if self.scale < 1 or self.max_participants < 1:
            raise ValueError("scale and max_participants must be positive")

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """The fixed-point integers of x, as integral floats: x * scale rounded
        half to even. The only place the format is defined."""
        return np.rint(np.asarray(x, dtype=np.float64) * self.scale)

    def decode(self, totals: Sequence[int]) -> np.ndarray:
        """Reals from (summed) fixed-point integers, each correctly rounded."""
        return np.array([t / self.scale for t in totals])

    def layout(self, modulus_bits: int) -> tuple[int, int]:
        """(slots per plaintext, slot width in bits) for a modulus_bits-bit n."""
        need = self.scale.bit_length() + self.max_participants.bit_length() + _SLOT_HEADROOM_BITS
        slots = max(1, (modulus_bits - 2) // need)
        return slots, (modulus_bits - 2) // slots

    def check_headroom(self, values: np.ndarray, width: int) -> np.ndarray:
        """Quantize values (one update per row), refusing any element whose
        max_participants-fold sum could leave a signed width-bit slot:
        |q| * max_participants < 2^(width-1), compared in exact integers. The
        HeadroomError names the first refused element and its row."""
        quantized = self.quantize(values)
        limit = 1 << (width - 1)
        peak = float(np.max(np.abs(quantized), initial=0.0))
        if math.isfinite(peak) and int(peak) * self.max_participants < limit:
            return quantized
        # the first refused element in row order; the peak guarantees there is one
        k = next(
            k
            for k, q in enumerate(quantized.reshape(-1).tolist())
            if not math.isfinite(q) or abs(int(q)) * self.max_participants >= limit
        )
        raise HeadroomError(
            f"element {k % quantized.shape[-1]} ({np.asarray(values).reshape(-1)[k]}) exceeds the {width}-bit "
            f"slot headroom for {self.max_participants} participants at scale {self.scale}",
            k // quantized.shape[-1],
        )


@dataclass(frozen=True)
class CipherVector:
    """Packed encryption of a quantized parameter vector of `elements` entries."""

    ciphertexts: tuple[int, ...]
    elements: int

    @property
    def dim(self) -> int:
        """The number of ciphertexts, ceil(elements / slots)."""
        return len(self.ciphertexts)


def _coefficients(count: int, weights: Sequence[int] | None, max_participants: int) -> list[int]:
    """Validated per-update multipliers whose total stays within max_participants."""
    if count == 0:
        raise ValueError("aggregation requires at least one update")
    if count > max_participants:
        raise ValueError(f"{count} updates exceed max participants {max_participants}")
    if weights is None:
        return [1] * count
    if len(weights) != count:
        raise ValueError("one weight per update required")
    if any(int(w) != w or w < 0 for w in weights):
        raise ValueError("weights must be nonnegative integers")
    if sum(weights) > max_participants:
        raise ValueError(f"weights sum to {sum(weights)}, above max participants {max_participants}")
    return [int(w) for w in weights]


def encrypt_update(v: ParamVector, codec: FixedPointCodec, public_key: PaillierPublicKey) -> CipherVector:
    """Quantize, pack into slots and encrypt; rejects values that could carry."""
    n = public_key.n
    slots, width = codec.layout(n.bit_length())
    quantized = [int(q) for q in codec.check_headroom(v.values, width).tolist()]
    cts = tuple(
        public_key.raw_encrypt(sum(q << (width * j) for j, q in enumerate(quantized[i : i + slots])) % n)
        for i in range(0, len(quantized), slots)
    )
    return CipherVector(cts, len(quantized))


def aggregate_encrypted(
    updates: Sequence[CipherVector],
    public_key: PaillierPublicKey,
    weights: Sequence[int] | None = None,
    max_participants: int = DEFAULT_MAX_PARTICIPANTS,
) -> CipherVector:
    """Homomorphic slotwise sum, optionally with nonnegative integer weights.

    Nothing is decrypted here. With weights w_i the result encrypts
    sum_i w_i * v_i; sum(w_i) may not exceed max_participants, the weight the
    codec's headroom covers.
    """
    coeffs = _coefficients(len(updates), weights, max_participants)
    elements = updates[0].elements
    if any(u.elements != elements for u in updates):
        raise ValueError("all cipher vectors must share one dimension")

    terms = [
        u.ciphertexts if weights is None else [public_key.scalar_mul(c, w) for c in u.ciphertexts]
        for w, u in zip(coeffs, updates)
    ]
    acc = terms[0]
    for cts in terms[1:]:
        acc = [public_key.add(a, c) for a, c in zip(acc, cts)]
    return CipherVector(tuple(acc), elements)


def decrypt_vector(
    cv: CipherVector,
    private_key: PaillierPrivateKey,
    codec: FixedPointCodec,
) -> np.ndarray:
    """Decrypt and unpack: lift each plaintext to signed, then peel balanced
    base-2^width digits, one per slot, until cv.elements values are out."""
    n = private_key.public_key.n
    slots, width = codec.layout(n.bit_length())
    half, mask = 1 << (width - 1), (1 << width) - 1
    totals: list[int] = []
    for c in cv.ciphertexts:
        m = private_key.decrypt(c)
        if m > n // 2:
            m -= n
        for _ in range(min(slots, cv.elements - len(totals))):
            digit = ((m + half) & mask) - half
            totals.append(digit)
            m = (m - digit) >> width
    return codec.decode(totals)


def sum_quantized(
    updates: np.ndarray,
    codec: FixedPointCodec,
    key_bits: int,
    weights: Sequence[int] | None = None,
) -> np.ndarray:
    """Bit-exact plaintext twin of decrypt_vector(aggregate_encrypted(...)) under
    a key_bits-bit key, for updates stacked one per row: the same headroom
    refusals, then the weighted quantized sum, decoded.

    The headroom check bounds every partial sum by 2^(width-1), so int64 sums
    are exact for slots of at most _INT64_SUM_MAX_WIDTH bits; wider slots are
    summed in Python ints, which never wrap.
    """
    if np.ndim(updates) != 2:
        raise ValueError("updates must be stacked one per row")
    _, width = codec.layout(key_bits)
    quantized = codec.check_headroom(updates, width)
    coeffs = _coefficients(len(quantized), weights, codec.max_participants)
    if width <= _INT64_SUM_MAX_WIDTH:
        totals = (np.array(coeffs, dtype=np.int64) @ quantized.astype(np.int64)).tolist()
    else:
        rows = [[int(q) for q in row] for row in quantized.tolist()]
        totals = [sum(c * q for c, q in zip(coeffs, column)) for column in zip(*rows)]
    return codec.decode(totals)


def release(total: np.ndarray, divisor: int, clip_val: float, noise_multiplier: float, seed: int) -> np.ndarray:
    """Average an aggregate, clip its L2 norm to clip_val, then add Gaussian noise.

    The noise std per element is noise_multiplier * clip_val / divisor;
    clipping happens strictly before the noise so a noiseless release's norm
    never exceeds clip_val.
    """
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    if not clip_val > 0:
        raise ValueError(f"clip_val must be positive, got {clip_val}")
    mean = total / divisor
    norm = float(np.linalg.norm(mean))
    if norm > clip_val:
        mean = mean * (clip_val / norm)
    if noise_multiplier == 0.0:  # also guards clip_val = inf
        noise = np.zeros(len(mean))
    else:
        noise = np.random.default_rng(seed).normal(0.0, noise_multiplier * clip_val / divisor, len(mean))
    return mean + noise


def finalize_edge_update(
    agg: CipherVector,
    private_key: PaillierPrivateKey,
    codec: FixedPointCodec,
    divisor: int,
    clip_val: float,
    noise_multiplier: float,
    seed: int,
) -> np.ndarray:
    """Decrypt the aggregate and release it (see release)."""
    return release(decrypt_vector(agg, private_key, codec), divisor, clip_val, noise_multiplier, seed)
