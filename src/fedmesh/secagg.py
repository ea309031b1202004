"""Edge-level privacy pipeline: fixed-point quantization, slot packing,
additively homomorphic encryption, ciphertext-space summation, and clipped
noisy release.

Secure mode reproduces the cost of homomorphic aggregation and checks the
fixed-point arithmetic exactly: the encrypted sum decrypts to the plaintext
path's sum, so both write the same bytes. It is not a confidentiality
boundary against the edge, which holds the private key for its clients'
ciphertexts and reads their plaintext weights for its utility estimate
(selection.estimate_metrics).

The cryptosystem is Paillier with g = n + 1, implemented over Python big
integers: Enc(m) = (1 + m*n) * R mod n^2 with R an n-th residue, so the
product of ciphertexts decrypts to the sum of plaintexts. Key generation draws
p and q with their top two bits set, (bits+1)//2 and bits//2 bits long, so n
always has exactly key_bits bits. Each prime passes the least number t of
Miller-Rabin rounds (at most 40) whose Damgard-Landrock-Pomerance average-case
bound p_{k,t} on a k-bit candidate is at most 2^-102; drawing only candidates
with their top two bits set can raise that chance by at most a factor of 4, so
each accepted prime is composite with probability at most 2^-100. That is 31
rounds for 128-bit primes, 18 for 256-bit, 8 for 512-bit and 4 for 1024-bit;
below about 96 bits no bound reaches 2^-102 within 40 rounds, and all 40 run.
Decryption uses the CRT split over p and q for speed, with its constants in
closed form, h_p = (-q)^-1 mod p and h_q = (-p)^-1 mod q; encryption does not,
because an encrypting client does not hold the factorization. Randomness is
drawn from a seeded PRNG so simulations reproduce bit-for-bit; this trades
cryptographic-grade randomness for determinism, which is the point of the
simulator, not a deployment posture.

The randomizer is fixed-base, after Damgard, Jurik and Nielsen: keygen draws x
prime to n, sets h = -x^2 mod n and publishes h_s = h^n mod n^2 with the key
(computed by the CRT over p^2 and q^2, since the key's maker holds p and q),
and each encryption takes R = h_s^a for an exponent a of key_bits + 128 bits
drawn from the key's PRNG. The order of h_s divides lambda(n) < n <
2^key_bits, so a full-length a leaves h_s^a within 2^-128 of uniform on the
subgroup h_s generates, and hiding m still rests on the decisional composite
residuosity assumption alone, with no short-exponent assumption. Since the
base is fixed, h_s^a is computed with a Lim-Lee comb: the exponent's bits are
cut into 8 blocks of d = 4 * ceil((key_bits + 128) / 32) bits and each block
into 4 sub-blocks of d/4 bits; 4 tables of 256 entries, built for the key's
first randomizer, hold in table s the product of h_s^(2^(j*d + s*d/4)) over
each subset of the blocks j. One power is then d/4 squarings and d table
multiplications, where r^n for a random r would take about key_bits
squarings (about 300 KiB of tables per 1024-bit key, held by the key's worker
where there is one).

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
next under nonnegative integer weights summing to at most max_participants
(and no packed sum wraps the ring). Encrypted and plaintext sums apply the
same bound and share one release step.

A public key is n, h_s and the source of its randomizers: keygen's draws each
exponent a from a PRNG seeded by the key seed and returns h_s^a, which depends
on the key and a alone, never on the message. So the exponentiations run
beside the simulation: edge_keys forks one worker per key, which drops to nice
19 (so it uses only CPU the simulation leaves idle), makes the key from its
seed, sends n, h_s, p and q, writes the run's budget of the source's
randomizers down its one pipe, in order, and exits; a read past the budget
raises ChildProcessError. A full pipe (64 KiB by default on Linux: 256
randomizers of a 1024-bit key) holds the worker until the encryptions catch
up, and what it made beyond what the run used dies with it. With one usable
core, without os.fork, or from the first worker that cannot start (out of
fds, processes or memory), keys are made in process, to the same bytes. The
encrypting side works from n and h_s alone and never uses the factorization.
The workers are plain os.fork children that run only pure-Python big-integer
code and pickle, and leave through os._exit; edge_keys kills and reaps them
on every exit path.
Python 3.12 and later warn when a process with other threads forks, because a
child may inherit a lock that one of those threads held. The parent's other
threads here are numpy's BLAS pool; a child never calls numpy, BLAS, logging
or any other code that takes such a lock, and os._exit skips atexit handlers
and inherited buffers, so that cannot happen.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import random
import signal
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .params import ParamVector, check_field_types

_MAX_MILLER_RABIN_ROUNDS = 40
_PRIME_ERROR_LOG2 = -102  # 2^-100 for a prime, less a factor 4 for its top two bits being set
_EXPONENT_MARGIN_BITS = 128
_COMB_TEETH = 8
_COMB_SUBBLOCKS = 4
_KEYGEN_RETRIES = 10_000
_SIEVE_LIMIT = 4096
_SLOT_HEADROOM_BITS = 12
_INT64_SUM_MAX_WIDTH = 64


@dataclass(frozen=True)
class SecAggConfig:
    enabled: bool = True
    key_bits: int = 1024
    scale: int = 2**20
    clip_val: float | None = 1.0  # None disables update clipping
    noise_multiplier: float = 0.1

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.key_bits < 16:
            raise ValueError("key_bits too small")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be nonnegative")
        if self.clip_val is not None and not self.clip_val > 0:
            raise ValueError("clip_val must be positive or null")
        if self.noise_multiplier > 0 and self.clip_val is None:
            raise ValueError("noise_multiplier > 0 requires a finite clip_val")


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


@functools.cache
def _small_odd_primes() -> tuple[tuple[int, ...], int]:
    """The odd primes below _SIEVE_LIMIT and their product, built on first use."""
    primes = tuple(p for p in range(3, _SIEVE_LIMIT, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
    return primes, math.prod(primes)


def _dlp_log2_bound(k: int, t: int) -> float:
    """log2 of the least Damgard-Landrock-Pomerance (Math. Comp. 1993) bound
    on p_{k,t}, the chance that a random odd k-bit integer that passes t
    Miller-Rabin rounds is composite; 0 where none of the bounds applies."""
    bounds = [0.0]
    if t == 1 and k >= 2:  # p_{k,1} < k^2 4^(2 - sqrt(k))
        bounds.append(2 * math.log2(k) + 2 * (2 - math.sqrt(k)))
    if (t == 2 and k >= 88) or (k >= 21 and 3 <= t <= k / 9):  # k^(3/2) 2^t t^(-1/2) 4^(2 - sqrt(tk))
        bounds.append(1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k)))
    if k >= 21 and k / 9 <= t <= k / 4:  # 7/20 k 2^(-5t) + 1/7 k^(15/4) 2^(-k/2-2t) + 12 k 2^(-k/4-3t)
        bounds.append(
            math.log2(7 / 20 * k * 2 ** (-5 * t) + k**3.75 / 7 * 2 ** (-k / 2 - 2 * t) + 12 * k * 2 ** (-k / 4 - 3 * t))
        )
    if k >= 21 and t >= k / 4:  # 1/7 k^(15/4) 2^(-k/2-2t)
        bounds.append(3.75 * math.log2(k) - math.log2(7) - k / 2 - 2 * t)
    return min(bounds)


@functools.cache
def _miller_rabin_rounds(bits: int) -> int:
    """The least t whose bound on p_{bits,t} is at most 2^_PRIME_ERROR_LOG2,
    capped at _MAX_MILLER_RABIN_ROUNDS."""
    return next(
        (t for t in range(1, _MAX_MILLER_RABIN_ROUNDS + 1) if _dlp_log2_bound(bits, t) <= _PRIME_ERROR_LOG2),
        _MAX_MILLER_RABIN_ROUNDS,
    )


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
    for _ in range(_miller_rabin_rounds(n.bit_length())):
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


class _FixedBaseComb:
    """Lim-Lee comb for base^e mod `mod` with 0 <= e < 2^bits: _COMB_TEETH
    teeth, each block cut into _COMB_SUBBLOCKS sub-blocks with a table each.

    e is cut into _COMB_TEETH * _COMB_SUBBLOCKS chunks of width =
    ceil(bits / (_COMB_TEETH * _COMB_SUBBLOCKS)) bits, chunk i holding bits
    i*width .. (i+1)*width - 1; block j is chunks j*S .. j*S + S - 1 (S =
    _COMB_SUBBLOCKS), and its sub-block s is chunk j*S + s. tables[s][i] is
    the product of base^(2^((j*S + s)*width)) over the set bits j of i. Column
    c of sub-block s in every block (bit c of each) indexes tables[s], so
    base^e is width squarings and S*width multiplications, from the top
    column down.
    """

    def __init__(self, base: int, bits: int, mod: int):
        chunks = _COMB_TEETH * _COMB_SUBBLOCKS
        self.width = -(-bits // chunks)
        self.mod = mod
        tooth = [base]
        for _ in range(1, chunks):
            tooth.append(pow(tooth[-1], 1 << self.width, mod))
        self.tables = []
        for s in range(_COMB_SUBBLOCKS):
            teeth, table = tooth[s::_COMB_SUBBLOCKS], [1]
            for i in range(1, 1 << _COMB_TEETH):
                low = i & -i
                table.append(table[i ^ low] * teeth[low.bit_length() - 1] % mod)
            self.tables.append(table)

    def pow(self, exponent: int) -> int:
        width, tables, mod = self.width, self.tables, self.mod
        count, mask = _COMB_TEETH * _COMB_SUBBLOCKS, (1 << _COMB_TEETH) - 1
        bits = format(exponent, f"0{count * width}b")
        # most significant first: chunk i is chunks[count - 1 - i], so chunks[S - 1 - s :: S] is sub-block s
        # of each block, top block first; joined from sub-block S - 1 down to 0, a column read left to
        # right holds every table's index, tables[0]'s in its low _COMB_TEETH bits
        chunks = [bits[k * width : (k + 1) * width] for k in range(count)]
        by_subblock = [chunk for r in range(_COMB_SUBBLOCKS) for chunk in chunks[r::_COMB_SUBBLOCKS]]
        acc = 1
        for column in zip(*by_subblock):
            index = int("".join(column), 2)
            acc = acc * acc % mod
            for table in tables:
                acc = acc * table[index & mask] % mod
                index >>= _COMB_TEETH
        return acc


@dataclass
class PaillierPublicKey:
    n: int
    h_s: int  # h^n mod n^2 with h = -x^2 mod n for a secret x: every randomizer is a power of it
    randomizer: Callable[[], int] = field(repr=False, compare=False)  # each call gives the next h_s^a mod n^2

    def __post_init__(self) -> None:
        self.n_sq = self.n * self.n

    def raw_encrypt(self, m: int) -> int:
        """Encrypt an integer already mapped into [0, n) with the key's next randomizer."""
        if not 0 <= m < self.n:
            raise ValueError("plaintext out of ring range")
        # (1+n)^m mod n^2 collapses to 1 + m*n by the binomial theorem, and 1 + m*n < n^2 already
        return (1 + m * self.n) * self.randomizer() % self.n_sq

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
        self._p_sq = self.p * self.p
        self._q_sq = self.q * self.q
        # hp = L_p((1+n)^(p-1) mod p^2)^-1 mod p, and (1+n)^(p-1) = 1 + (p-1)*n mod p^2 gives L_p = -q mod p
        self._hp = pow(-self.q, -1, self.p)
        self._hq = pow(-self.p, -1, self.q)
        self._q_inv_p = pow(self.q, -1, self.p)

    def decrypt(self, c: int) -> int:
        if not 0 <= c < self.public_key.n_sq:
            raise ValueError("ciphertext out of range")
        mp = (pow(c, self.p - 1, self._p_sq) - 1) // self.p * self._hp % self.p
        mq = (pow(c, self.q - 1, self._q_sq) - 1) // self.q * self._hq % self.q
        return (mp - mq) * self._q_inv_p % self.p * self.q + mq


Keypair = tuple[PaillierPublicKey, PaillierPrivateKey]


def keygen(key_bits: int, seed: int) -> Keypair:
    """Deterministic Paillier keypair whose modulus has exactly key_bits bits (>= 16).

    p has (key_bits+1)//2 bits and q has key_bits//2, both with their top two
    bits set, so 2^(key_bits-1) < p*q < 2^key_bits for the first pair drawn.
    The randomizer base h_s = (-x^2)^n mod n^2 takes an x prime to n, and the
    public key's randomizers come from a seeded comb source.
    """
    if key_bits < 16:
        raise ValueError(f"key_bits too small: {key_bits}")
    rng = random.Random(seed)
    p = _gen_prime((key_bits + 1) // 2, rng)
    q = p
    while q == p:
        q = _gen_prime(key_bits // 2, rng)
    n = p * q
    x = rng.randrange(1, n)
    while math.gcd(x, n) != 1:
        x = rng.randrange(1, n)
    h_s = _pow_n_mod_n_sq(-x * x % n, p, q)
    public = PaillierPublicKey(n, h_s, _comb_randomizers(h_s, n, rng.getrandbits(64)))
    return public, PaillierPrivateKey(public, p, q)


def _pow_n_mod_n_sq(h: int, p: int, q: int) -> int:
    """h^n mod n^2 for n = p*q, by the CRT over p^2 and q^2: the key's maker
    holds the factorization, and two powers modulo the half-size squares cost
    less than one modulo n^2."""
    n, p_sq, q_sq = p * q, p * p, q * q
    h_q = pow(h, n, q_sq)
    return h_q + (pow(h, n, p_sq) - h_q) * pow(q_sq, -1, p_sq) % p_sq * q_sq


def _comb_randomizers(h_s: int, n: int, seed: int) -> Callable[[], int]:
    """A source of h_s^a mod n^2 for each next exponent a of n.bit_length() + _EXPONENT_MARGIN_BITS
    bits from random.Random(seed), whose comb table is built on its first call."""
    rng, bits = random.Random(seed), n.bit_length() + _EXPONENT_MARGIN_BITS
    comb = functools.cache(lambda: _FixedBaseComb(h_s, bits, n * n))
    return lambda: comb().pow(rng.getrandbits(bits))


class _KeyWorker:
    """A forked child at nice 19 that sends keygen(key_bits, seed) as (n, h_s,
    p, q), or its exception, then the key's first `count` randomizers in its
    exponent order, and exits. It closes its copies of the `earlier` workers'
    read ends, so that each worker alone holds its parent's pipe end."""

    def __init__(self, key_bits: int, seed: int, count: int, earlier: Sequence[_KeyWorker]):
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(result_r)
            os.close(result_w)
            raise
        if self.pid == 0:  # the child: pure-Python work, then os._exit whatever happens
            code = 1
            try:
                for fd in (result_r, *(w._results.fileno() for w in earlier)):
                    os.close(fd)
                os.nice(19)
                with open(result_w, "wb") as results:
                    _serve_key(key_bits, seed, count, results)
                code = 0
            finally:
                os._exit(code)
        os.close(result_w)
        self._results = open(result_r, "rb")
        self._keypair: Keypair | None = None

    def _read(self, size: int) -> bytes:
        data = self._results.read(size)
        if len(data) < size:
            raise ChildProcessError(f"key worker {self.pid} exited early")
        return data

    def keypair(self) -> Keypair:
        """The worker's keypair, whose public key takes its randomizers from the worker."""
        if self._keypair is None:
            ok, value = pickle.loads(self._read(int.from_bytes(self._read(8), "big")))
            if not ok:
                raise value
            public = PaillierPublicKey(*value[:2], self.take)
            self._width = (public.n_sq.bit_length() + 7) // 8
            self._keypair = public, PaillierPrivateKey(public, *value[2:])
        return self._keypair

    def take(self) -> int:
        """The key's next randomizer; past the worker's `count`, a ChildProcessError."""
        if self._results.closed:
            raise RuntimeError(f"key worker {self.pid} is closed")
        return int.from_bytes(self._read(self._width), "big")

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self._results.close()


def _serve_key(key_bits: int, seed: int, count: int, results) -> None:
    """The child's side of a _KeyWorker: the key, then `count` randomizers."""
    try:
        public, private = keygen(key_bits, seed)
        ok, value = True, (public.n, public.h_s, private.p, private.q)
    except Exception as exc:
        ok, value = False, exc
    reply = pickle.dumps((ok, value))
    results.write(len(reply).to_bytes(8, "big") + reply)
    results.flush()
    if not ok:
        return
    width = (public.n_sq.bit_length() + 7) // 8
    for _ in range(count):
        results.write(public.randomizer().to_bytes(width, "big"))
        results.flush()


@contextlib.contextmanager
def edge_keys(key_bits: int, seeds: Sequence[int], count: int) -> Iterator[list[Callable[[], Keypair]]]:
    """Yield a getter of each seed's keypair. With two or more usable cores each
    key is made by a _KeyWorker started here, which makes the key's first
    `count` randomizers and no more, until one cannot start (os.pipe or os.fork
    raising OSError: out of fds, processes or memory); the rest are made here
    on first use. Every worker is killed and reaped on exit."""
    workers: list[_KeyWorker] = []
    try:
        if _usable_cores() > 1:
            with contextlib.suppress(OSError):
                for seed in seeds:
                    workers.append(_KeyWorker(key_bits, seed, count, workers))
        made_here = [functools.cache(functools.partial(keygen, key_bits, seed)) for seed in seeds[len(workers) :]]
        yield [worker.keypair for worker in workers] + made_here
    finally:
        for worker in workers:
            worker.close()


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals to integers, x * scale rounded half to even, and lays them out in slots.

    max_participants bounds the total weight of the values summed before
    decoding; check_headroom refuses elements that could carry out of their
    slot under that much weight.
    """

    scale: int
    max_participants: int

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


def _coefficients(count: int, weights: Sequence[int], max_participants: int) -> list[int]:
    """Validated per-update multipliers whose total stays within max_participants;
    zero-weight updates add nothing to a slot, so that total alone bounds the headroom."""
    if count == 0:
        raise ValueError("aggregation requires at least one update")
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
    codec: FixedPointCodec,
    weights: Sequence[int],
) -> CipherVector:
    """Homomorphic slotwise sum under `codec`, one nonnegative integer weight per update.

    Nothing is decrypted here. The result encrypts sum_i w_i * v_i;
    sum(w_i) may not exceed codec.max_participants, the weight the codec's
    headroom covers, so a sum that could wrap is refused.
    """
    coeffs = _coefficients(len(updates), weights, codec.max_participants)
    elements = updates[0].elements
    if any(u.elements != elements for u in updates):
        raise ValueError("all cipher vectors must share one dimension")

    acc = [1] * updates[0].dim  # the empty product, which encrypts 0 with randomizer 1
    for w, u in zip(coeffs, updates):
        acc = [public_key.add(a, public_key.scalar_mul(c, w)) for a, c in zip(acc, u.ciphertexts)]
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
    weights: Sequence[int],
) -> np.ndarray:
    """Bit-exact plaintext twin of decrypt_vector(aggregate_encrypted(...)) under
    a key_bits-bit key, for updates stacked one per row with one nonnegative
    integer weight each: the same headroom refusals, then the weighted
    quantized sum, decoded.

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


def release(total: np.ndarray, divisor: int, config: SecAggConfig, seed: int) -> np.ndarray:
    """Average an aggregate, clip its L2 norm to config.clip_val (None: no
    clip), then add Gaussian noise.

    The noise std per element is noise_multiplier * clip_val / divisor;
    clipping happens strictly before the noise so a noiseless release's norm
    never exceeds clip_val.
    """
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    mean = total / divisor
    clip_val = config.clip_val
    if clip_val is not None:
        norm = float(np.linalg.norm(mean))
        if norm > clip_val:
            mean = mean * (clip_val / norm)
    if config.noise_multiplier == 0.0:  # always so without a clip_val
        noise = np.zeros(len(mean))
    else:
        noise = np.random.default_rng(seed).normal(0.0, config.noise_multiplier * clip_val / divisor, len(mean))
    return mean + noise


def finalize_edge_update(
    agg: CipherVector,
    private_key: PaillierPrivateKey,
    codec: FixedPointCodec,
    divisor: int,
    config: SecAggConfig,
    seed: int,
) -> np.ndarray:
    """Decrypt the aggregate and release it (see release)."""
    return release(decrypt_vector(agg, private_key, codec), divisor, config, seed)
