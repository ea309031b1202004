"""Edge-level privacy pipeline: fixed-point encoding, additively homomorphic
encryption, ciphertext-space summation, and clipped noisy release.

The cryptosystem is Paillier with g = n + 1, implemented over Python big
integers: Enc(m) = (1 + m*n) * r^n mod n^2, so the product of ciphertexts
decrypts to the sum of plaintexts. Decryption uses the CRT split over p and q
for speed. Randomness is drawn from a seeded PRNG so simulations reproduce
bit-for-bit; this trades cryptographic-grade randomness for determinism,
which is the point of the simulator, not a deployment posture.

Real-valued updates are quantized by a fixed-point codec before encryption;
negative values map into the upper half of the plaintext ring and are decoded
by the half-range rule. Encrypted and plaintext sums share one release step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ParamVector, clip_l2

DEFAULT_KEY_BITS = 1024
DEFAULT_SCALE = 2**20
DEFAULT_MAX_PARTICIPANTS = 64
MECHANISMS = ("gaussian", "laplace")

_MILLER_RABIN_ROUNDS = 40
_KEYGEN_RETRIES = 10_000
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class KeyGenerationError(RuntimeError):
    pass


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
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
    for _ in range(_KEYGEN_RETRIES):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found after {_KEYGEN_RETRIES} candidates")


@dataclass
class PaillierPublicKey:
    n: int

    def __post_init__(self) -> None:
        self.n_sq = self.n * self.n
        self._rng = random.Random()

    def seed_obfuscation(self, seed: int) -> None:
        self._rng.seed(seed)

    def raw_encrypt(self, m: int) -> int:
        """Encrypt an integer already mapped into [0, n)."""
        if not 0 <= m < self.n:
            raise ValueError("plaintext out of ring range")
        r = self._rng.randrange(1, self.n)
        # (1+n)^m mod n^2 collapses to 1 + m*n by the binomial theorem
        return (1 + m * self.n) % self.n_sq * pow(r, self.n, self.n_sq) % self.n_sq

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
    """Deterministic Paillier keypair; key_bits is the modulus size (>= 512 in tests)."""
    if key_bits < 16:
        raise ValueError(f"key_bits too small: {key_bits}")
    rng = random.Random(seed)
    for _ in range(_KEYGEN_RETRIES):
        p = _gen_prime(key_bits // 2, rng)
        q = _gen_prime(key_bits // 2, rng)
        n = p * q
        if p != q and n.bit_length() == key_bits:
            public = PaillierPublicKey(n)
            public.seed_obfuscation(rng.getrandbits(64))
            return public, PaillierPrivateKey(public, p, q)
    raise KeyGenerationError(f"could not assemble a {key_bits}-bit modulus")


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals to ring integers: round(x * scale), negatives as n + x.

    max_participants bounds how many encoded values may be summed before
    decoding; encryption rejects elements that could overflow half the ring
    under that many additions.
    """

    scale: int = DEFAULT_SCALE
    max_participants: int = DEFAULT_MAX_PARTICIPANTS

    def __post_init__(self) -> None:
        if self.scale < 1 or self.max_participants < 1:
            raise ValueError("scale and max_participants must be positive")

    def quantize(self, x: float) -> int:
        """The fixed-point integer of x; the only place the format is defined."""
        return round(x * self.scale)

    def encode(self, x: float, n: int) -> int:
        return self.quantize(x) % n

    def decode(self, m: int, n: int) -> float:
        if m > n // 2:
            m -= n
        return m / self.scale

    def check_headroom(self, x: float, n: int) -> bool:
        return abs(self.quantize(x)) * self.max_participants < n // 2


@dataclass(frozen=True)
class CipherVector:
    """Elementwise encryption of a quantized parameter vector."""

    ciphertexts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.ciphertexts)


def encrypt_update(v: ParamVector, codec: FixedPointCodec, public_key: PaillierPublicKey) -> CipherVector:
    """Quantize-then-encrypt each element; rejects values that could overflow."""
    n = public_key.n
    cts = []
    for i, x in enumerate(v.values):
        if not codec.check_headroom(float(x), n):
            raise OverflowError(
                f"element {i} ({x}) exceeds plaintext headroom for "
                f"{codec.max_participants} participants at scale {codec.scale}"
            )
        cts.append(public_key.raw_encrypt(codec.encode(float(x), n)))
    return CipherVector(tuple(cts))


def aggregate_encrypted(
    updates: Sequence[CipherVector],
    public_key: PaillierPublicKey,
    weights: Sequence[int] | None = None,
    max_participants: int = DEFAULT_MAX_PARTICIPANTS,
) -> CipherVector:
    """Homomorphic elementwise sum, optionally with nonnegative integer weights.

    Nothing is decrypted here. With weights w_i the result encrypts
    sum_i w_i * v_i (the caller's codec headroom must cover sum(w_i)).
    """
    if not updates:
        raise ValueError("aggregate_encrypted requires at least one update")
    if len(updates) > max_participants:
        raise ValueError(f"{len(updates)} updates exceed max participants {max_participants}")
    dim = updates[0].dim
    if any(u.dim != dim for u in updates):
        raise ValueError("all cipher vectors must share one dimension")
    if weights is not None:
        if len(weights) != len(updates):
            raise ValueError("one weight per update required")
        if any(int(w) != w or w < 0 for w in weights):
            raise ValueError("weights must be nonnegative integers")

    acc = list(updates[0].ciphertexts)
    if weights is not None:
        acc = [public_key.scalar_mul(c, int(weights[0])) for c in acc]
    for u_idx in range(1, len(updates)):
        cts = updates[u_idx].ciphertexts
        if weights is not None:
            cts = [public_key.scalar_mul(c, int(weights[u_idx])) for c in cts]
        acc = [public_key.add(a, c) for a, c in zip(acc, cts)]
    return CipherVector(tuple(acc))


def decrypt_vector(
    cv: CipherVector,
    private_key: PaillierPrivateKey,
    codec: FixedPointCodec,
) -> np.ndarray:
    n = private_key.public_key.n
    return np.array([codec.decode(private_key.decrypt(c), n) for c in cv.ciphertexts])


def sum_quantized(
    updates: Sequence[ParamVector],
    codec: FixedPointCodec,
    weights: Sequence[int] | None = None,
) -> np.ndarray:
    """Bit-exact plaintext twin of decrypt_vector(aggregate_encrypted(...)):
    the weighted quantized sum in Python ints, which never wrap, decoded."""
    coeffs = [1] * len(updates) if weights is None else [int(w) for w in weights]
    columns = zip(*(u.values for u in updates), strict=True)
    totals = [sum(c * codec.quantize(float(x)) for c, x in zip(coeffs, column, strict=True)) for column in columns]
    return np.array([t / codec.scale for t in totals])


def release(
    total: np.ndarray,
    divisor: int,
    clip_val: float,
    noise_multiplier: float,
    mechanism: str,
    seed: int,
) -> ParamVector:
    """Average an aggregate, clip its L2 norm, then add noise.

    The noise std per element is noise_multiplier * clip_val / divisor;
    clipping happens strictly before the noise so a noiseless release's norm
    never exceeds clip_val.
    """
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    clipped = clip_l2(ParamVector(total / divisor), clip_val)
    if noise_multiplier == 0.0:  # also guards clip_val = inf
        noise = np.zeros(clipped.dim)
    else:
        std = noise_multiplier * clip_val / divisor
        rng = np.random.default_rng(seed)
        if mechanism == "gaussian":
            noise = rng.normal(0.0, std, clipped.dim)
        else:  # laplace calibrated by std: Var(Laplace(b)) = 2 b^2
            noise = rng.laplace(0.0, std / np.sqrt(2.0), clipped.dim)
    return ParamVector(clipped.values + noise)


def finalize_edge_update(
    agg: CipherVector,
    private_key: PaillierPrivateKey,
    codec: FixedPointCodec,
    divisor: int,
    clip_val: float,
    noise_multiplier: float,
    mechanism: str,
    seed: int,
) -> ParamVector:
    """Decrypt the aggregate and release it (see release)."""
    return release(decrypt_vector(agg, private_key, codec), divisor, clip_val, noise_multiplier, mechanism, seed)
