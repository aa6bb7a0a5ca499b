"""Exact integer arithmetic: primality, factorization, p-adic valuations.

Integers are plain Python ints (arbitrary precision). Primality is
deterministic Miller-Rabin below ~3.3e24, on only as many prime bases as
the size of n needs (OEIS A014233). Factorization
divides out the primes below 4096 by trial division, splits what is left
with one Pollard p-1 power (Pollard, Proc. Cambridge Philos. Soc. 76 (1974))
and then Brent's cycle variant of Pollard rho (Brent, BIT 20 (1980)) under
an effort budget, and sweeps the primes in [4096, 10**6) by trial division
only from a cofactor that rho gave up on.

Trial division works on blocks of _BLOCK consecutive integers. A block is
sieved the first time a factorization reaches it, and its primes (an
array('I')) and their product stay in a module-level table of
input-independent constants; a process that never sweeps builds block 0
alone. For each block whose lower end is at most sqrt(n), one gcd of n with
the block's product finds every prime of the block that divides n; only when
that gcd exceeds 1 are the block's primes walked, and the walk stops as soon
as the gcd is used up (Bernstein, "How to find smooth parts of integers",
2004, batches the same way with product trees).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, lcm, prod

from .errors import BudgetError, DomainError

# The first k prime bases decide Miller-Rabin for every n < _MR_PSP[k - 1]:
# OEIS A014233, the least strong pseudoprime to all of them (Jaeschke,
# Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSP = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)
_MR_DETERMINISTIC_BOUND = _MR_PSP[-1]
_MR_EXTRA_ROUNDS = 16  # random bases above the deterministic bound

_TRIAL_BOUND = 10**6
_BLOCK = 4096  # block 0 holds every prime up to isqrt(_TRIAL_BOUND)
_TRIAL_BLOCKS: list[tuple[array, int]] = []  # block k: (primes in [k*_BLOCK, (k+1)*_BLOCK), their product)

# Pollard p-1 stage 1: 2**_PM1_EXPONENT == 1 mod p for every odd prime p with p - 1 | lcm(1..1000)
_PM1_EXPONENT = lcm(*range(1, 1001))


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True iff a witnesses the compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality of n > 1.

    Deterministic below ~3.3e24: after trial division by the 13 bases (the
    primes up to 41), n runs Miller-Rabin on the first k bases, k the least
    with n < _MR_PSP[k - 1] (one base below 2047, all 13 from 3.2e23 on).
    Above 3.3e24 a True is a probable prime (error probability
    < 4**-_MR_EXTRA_ROUNDS), with no certificate yet (ROADMAP item 5).
    """
    if n <= 1:
        raise DomainError(f"is_prime requires n > 1, got {n}")
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for a in _MR_BASES[: bisect_right(_MR_PSP, n) + 1]:
        if _miller_rabin_witness(n, a):
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n)
    for _ in range(_MR_EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a):
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """unit * prod(p**e) == value; primes strictly increasing, each passing
    is_prime. That proves primality below ~3.3e24 (deterministic Miller-Rabin
    bases); above it a factor is only a probable prime, whose certificate
    ROADMAP item 5 tracks."""

    unit: int  # +1 or -1
    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        v = self.unit
        for p, e in self.factors:
            v *= p**e
        return v

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def __iter__(self):
        return iter(self.factors)


def _brent_rho(n: int, rng: random.Random, max_iters: int) -> int | None:
    """A nontrivial factor of composite odd n, or None if the budget ran out."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    iters = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += m
            iters += m
            if iters > max_iters:
                return None
        r *= 2
    if g == n:
        # backtrack
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g if g != n else None


def factorize(n: int, *, effort: int = 50) -> Factorization:
    """Full factorization of n != 0.

    Trial division removes the primes below 4096. At effort > 0 a cofactor
    m that is neither a prime nor a square then gets one Pollard p-1 power:
    g = gcd(2**lcm(1..1000) - 1, m) takes in every prime p of m with
    p - 1 | lcm(1..1000), and 1 < g < m splits m. Otherwise (g = 1, or
    g = m) m goes to Brent rho: up to 8 tries of effort * 100_000
    iterations each. At effort 0 neither runs: rho counts as given up.
    Only a cofactor that rho gave up on is swept for the primes in
    [4096, 10**6), and never one that a sweep left or that was split off
    such a cofactor: its primes are all above 10**6. A BudgetError names a
    cofactor that rho gave up on and that is not swept, or that the sweep
    left unchanged. So every prime below 10**6 is found at any effort >= 0.

    The p-1 power (a 1,438-bit exponent) costs a fraction of an average rho
    run and spares about a third of them on random discriminants. Rho
    finds a prime p in about sqrt(p) steps, cheaper than the sweep's 244
    block gcds for p < 10**6. The trade-off: a 10**6-smooth n with several
    primes in (4096, 10**6) costs more than one sweep up front would, about
    twice as much with six such primes.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    if effort < 0:
        raise DomainError(f"effort must be >= 0, got {effort}")
    unit = 1 if n > 0 else -1
    found: dict[int, int] = {}
    n = _trial_divide(abs(n), found, range(1))

    # (cofactor, swept): a divisor of a swept cofactor has no prime below 10**6
    stack = [(n, False)] if n > 1 else []
    rng = None
    max_iters = effort * 100_000
    while stack:
        m, swept = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([(r, swept), (r, swept)])
            continue
        f = None
        if effort:
            f = gcd(pow(2, _PM1_EXPONENT, m) - 1, m)
            if not 1 < f < m:
                if rng is None:
                    rng = random.Random(0xE11)
                for _ in range(8):
                    if (f := _brent_rho(m, rng, max_iters)) is not None:
                        break
        if f is not None:
            stack.extend([(f, swept), (m // f, swept)])
            continue
        if not swept:
            rest = _trial_divide(m, found, range(1, _TRIAL_BOUND // _BLOCK + 1))
            if rest != m:
                stack.append((rest, True))
                continue
        raise BudgetError(f"incomplete factorization: unfactored cofactor {m}")

    factors = tuple(sorted(found.items()))
    return Factorization(unit, factors)


def _trial_divide(n: int, found: dict[int, int], blocks: range) -> int:
    """n with the primes of the given trial blocks counted into found and divided out.

    n must be free of the primes below the first block. The walk then stops
    at the first block that starts above sqrt(n), since what is left is 1 or
    a prime.
    """
    for k in blocks:
        lo = k * _BLOCK
        if lo * lo > n:
            break
        if k == len(_TRIAL_BLOCKS):
            _add_trial_blocks()
        primes, product = _TRIAL_BLOCKS[k]
        g = gcd(n, product)
        if g > 1:
            for d in primes:
                if g % d == 0:
                    g //= d
                    while n % d == 0:
                        found[d] = found.get(d, 0) + 1
                        n //= d
                    if g == 1:
                        break
    return n


def padic_val(n: int, p: int) -> int:
    """Largest e with p**e | n, for n != 0 and p >= 2.

    Callers pass a p they have tested prime, so p is not tested again here.
    """
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    if p < 2:
        raise DomainError(f"{p} is not prime")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root mod odd prime p; a must be a QR or 0."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _sieve(lo: int, hi: int, base: Iterable[int]) -> list[int]:
    """Primes in [lo, hi) for odd lo >= 3, given every odd prime up to isqrt(hi - 1) in base, ascending."""
    flags = bytearray([1]) * ((hi - lo + 1) // 2)  # flags[i] stands for lo + 2i
    for p in base:
        if p * p >= hi:
            break
        m = max(p * p, -(-lo // p) * p)
        start = (m + (p if m % 2 == 0 else 0) - lo) // 2  # first odd multiple
        flags[start::p] = bytes(len(range(start, len(flags), p)))
    return list(compress(range(lo, hi, 2), flags))


def primes_below(bound: int) -> list[int]:
    """Primes < bound via a sieve."""
    if bound <= 2:
        return []
    return [2] + _sieve(3, bound, primes_below(isqrt(bound - 1) + 1)[1:])


def _add_trial_blocks() -> None:
    """Append the blocks of the next stretch up to _TRIAL_BOUND, sieved in one pass.

    Each pass doubles the sieved range: a pass per block would be mostly
    per-prime slicing overhead, and a factorization that stops early builds
    at most twice the blocks it reaches.
    """
    lo = len(_TRIAL_BLOCKS) * _BLOCK
    hi = min(2 * lo or _BLOCK, _TRIAL_BOUND + 1)
    primes = primes_below(hi) if lo == 0 else _sieve(lo + 1, hi, _TRIAL_BLOCKS[0][0][1:])
    i = 0
    for end in range(lo + _BLOCK, hi + _BLOCK, _BLOCK):
        j = bisect_left(primes, end, i)
        _TRIAL_BLOCKS.append((array("I", primes[i:j]), prod(primes[i:j])))
        i = j
