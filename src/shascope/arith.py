"""Exact integer arithmetic: primality, factorization, p-adic valuations.

Integers are plain Python ints (arbitrary precision); rationals are
fractions.Fraction (always reduced, positive denominator). Factorization
is trial division to 10**6 followed by Brent's cycle variant of Pollard
rho, with a configurable effort budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BudgetError, DomainError

# Deterministic Miller-Rabin witness set, valid for all n below this threshold.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_BOUND = 10**6

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


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


def is_prime(n: int, *, extra_rounds: int = 16) -> bool:
    """Primality of n > 1.

    Deterministic below ~3.3e24 (fixed Miller-Rabin base set); above that the
    verdict is probabilistic (error probability < 4**-extra_rounds) and
    is_prime_certified() reports which regime applied.
    """
    if n <= 1:
        raise DomainError(f"is_prime requires n > 1, got {n}")
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for a in _MR_BASES:
        if _miller_rabin_witness(n, a):
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n)
    for _ in range(extra_rounds):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a):
            return False
    return True


def is_prime_certified(n: int) -> tuple[bool, bool]:
    """(is_prime, certified): certified=True iff inside the deterministic range."""
    return is_prime(n), n < _MR_DETERMINISTIC_BOUND


@dataclass(frozen=True)
class Factorization:
    """unit * prod(p**e) == value; primes strictly increasing, each certified."""

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
    if n % 2 == 0:
        return 2
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
                q = q * abs(x - y) % n
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
            g = gcd(abs(x - ys), n)
    return g if g != n else None


def factorize(n: int, *, effort: int = 50) -> Factorization:
    """Full factorization of n != 0.

    effort scales the rho budget; when exhausted a BudgetError names the
    unfactored cofactor.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    unit = 1 if n > 0 else -1
    n = abs(n)
    found: dict[int, int] = {}

    d = 2
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            found[d] = found.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2

    stack = [n] if n > 1 else []
    rng = random.Random(0xE11)
    max_iters = effort * 100_000
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        f = None
        for _ in range(8):
            f = _brent_rho(m, rng, max_iters)
            if f is not None and 1 < f < m:
                break
            f = None
        if f is None:
            raise BudgetError(f"incomplete factorization: unfactored cofactor {m}")
        stack.extend([f, m // f])

    factors = tuple(sorted(found.items()))
    return Factorization(unit, factors)


def padic_val(n: int, p: int) -> int:
    """Largest e with p**e | n, for n != 0 and p prime."""
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    if p < 2 or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def rat_val(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise DomainError("valuation of 0 is infinite")
    return padic_val(x.numerator, p) - padic_val(x.denominator, p)


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


def divisors(f: Factorization) -> list[int]:
    """All positive divisors of |value|, ascending."""
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primes_below(bound: int) -> list[int]:
    """Primes < bound via a sieve."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]
