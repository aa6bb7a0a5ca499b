import math
import random

import pytest
import sympy

from shascope import arith
from shascope.arith import (
    factorize,
    is_prime,
    legendre,
    padic_val,
    primes_below,
    sqrt_mod,
)
from shascope.errors import BudgetError, DomainError


def test_is_prime_small_range_vs_sympy():
    for n in range(2, 5000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_base_tiers_exact():
    # below 2047 is_prime runs base 2 alone, and below 1373653 bases 2 and 3
    primes = primes_below(10**6)
    assert [n for n in range(2, 10**6) if is_prime(n)] == primes
    # each A014233 entry is a strong pseudoprime to every base below its tier,
    # so a tier one base short calls it prime; 2047 = 23 * 89 falls to trial
    # division first, so 1373653 = 829 * 1657 is the first entry that shows it
    for k, n in enumerate(arith._MR_PSP, 1):
        assert not any(arith._miller_rabin_witness(n, a) for a in arith._MR_BASES[:k]), n
        assert not sympy.isprime(n)
        assert not is_prime(n), n


def test_is_prime_rejects_nonpositive():
    with pytest.raises(DomainError):
        is_prime(1)
    with pytest.raises(DomainError):
        is_prime(0)
    with pytest.raises(DomainError):
        is_prime(-7)


def test_is_prime_big_values():
    assert is_prime(2**89 - 1)  # Mersenne prime
    assert not is_prime(2**89 + 1)
    assert is_prime(8420798017)
    assert is_prime(10**18 + 9)  # below the deterministic Miller-Rabin bound
    assert is_prime(2**127 - 1)  # above it: a probable prime


def test_factorize_random_vs_sympy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 10**12)
        fac = factorize(n)
        assert dict(fac.factors) == sympy.factorint(n)
        assert fac.value == n


def _assert_factorization(n, fac):
    assert fac.value == n
    assert fac.unit == (1 if n > 0 else -1)
    assert dict(fac.factors) == sympy.factorint(abs(n)), n
    assert all(is_prime(p) for p in fac.primes()), n


def test_factorize_trial_stage_vs_sympy():
    # Trial division takes one gcd per 4096-wide block of the primes up to
    # 10**6: block 0 first, the rest only as a sweep of a cofactor that rho
    # gave up on. With effort=0 rho gives up on every cofactor, so a case with
    # at most one prime factor above 10**6 (or the square of one) factors only
    # if that sweep removed every prime in [4096, 10**6).
    edges = [
        p
        for lo in (4096, 8192, 4096 * 37, 4096 * 122, 4096 * 244)  # 4096 * 244 = 999424
        for p in sympy.primerange(lo - 40, lo + 40)
    ]
    big = [1000003, 1000033, 1000037, 1000039, 2**61 - 1]
    trial_only = [1, -1, 2, -2, -12, 999983, 999983**2, 999983 * 1000003, -999983 * 1000003, 1000003**2]
    trial_only += big + [2 * 3 * 999983 * q for q in big]
    trial_only += [a * b for a in edges for b in edges]
    rng = random.Random(5)
    for _ in range(200):
        n = math.prod(rng.choice(edges) ** rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        trial_only.append(n * rng.choice([1, -1, rng.choice(big), rng.choice(big) ** 2]))
    for n in trial_only:
        _assert_factorization(n, factorize(n, effort=0))
    with pytest.raises(BudgetError, match="unfactored cofactor 1000036000099"):
        factorize(999983 * 1000003 * 1000033, effort=0)
    # two prime factors above 10**12 (and small ones): only rho splits them
    for p, q in ((1000000012367, 3000000000793), (999999999989, 1000000000039)):
        for n in (p * q, -4093 * 4099**2 * 999983 * p * q):
            _assert_factorization(n, factorize(n))


def test_factorize_rho_first_vs_sympy():
    # products of primes from (4096, 10**6), which rho or the sweep finds,
    # times a few small and 10**6-rough tails
    rng = random.Random(11)
    mids = list(sympy.primerange(4097, 10**6))
    pq = 1000003 * 1000033  # 10**6-rough and composite: only rho splits it
    for _ in range(300):
        n = math.prod(rng.choice(mids) ** rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        n *= rng.choice([1, 2, 12, 4093, rng.randrange(10**6 + 1, 10**9, 2)])
        want = sympy.factorint(n)
        for effort in (0, 1, 50):
            fac = factorize(n, effort=effort)
            assert dict(fac.factors) == want and fac.value == n, (n, effort)
        rough = pq * math.prod(p**e for p, e in want.items() if p > 10**6)
        with pytest.raises(BudgetError, match=f"unfactored cofactor {rough}$"):
            factorize(n * pq, effort=0)


def test_factorize_sweeps_only_what_rho_gave_up_on(monkeypatch):
    sweeps = []
    trial_divide = arith._trial_divide

    def counted(n, found, blocks):
        if blocks.start > 0:  # block 0 is divided out of every input
            sweeps.append(n)
        return trial_divide(n, found, blocks)

    monkeypatch.setattr(arith, "_trial_divide", counted)
    n = -4093 * 4099**2 * 999983 * 1000000012367 * 3000000000793
    _assert_factorization(n, factorize(n))
    assert sweeps == []
    _assert_factorization(999983 * 1000003, factorize(999983 * 1000003, effort=0))
    assert sweeps == [999983 * 1000003]
    # the swept cofactor 1000003 * 1000033 has no prime below 10**6 to find
    sweeps.clear()
    n = 999983 * 1000003 * 1000033
    with pytest.raises(BudgetError, match="unfactored cofactor 1000036000099$"):
        factorize(n, effort=0)
    assert sweeps == [n]


def test_factorize_pm1_stage_before_rho(monkeypatch):
    rho_calls = []
    brent_rho = arith._brent_rho

    def counted(n, rng, max_iters):
        rho_calls.append(n)
        return brent_rho(n, rng, max_iters)

    monkeypatch.setattr(arith, "_brent_rho", counted)
    # 1000033 - 1 = 2**5 * 3 * 11 * 947 is 1000-smooth, 1000003 - 1 = 2 * 3 * 166667 is not:
    # one modular power splits the product
    _assert_factorization(1000003 * 1000033, factorize(1000003 * 1000033, effort=50))
    assert rho_calls == []
    # both p - 1 smooth (1000037 - 1 = 2**2 * 29 * 37 * 233), so the gcd is the whole
    # cofactor; neither smooth (1000039 - 1 = 2 * 3 * 13 * 12821), so it is 1: rho splits both
    for n in (1000033 * 1000037, 1000003 * 1000039):
        rho_calls.clear()
        _assert_factorization(n, factorize(n, effort=50))
        assert rho_calls and rho_calls[0] == n
    # effort 0 runs neither stage: the product is split by the sweep, and the
    # cofactor the sweep leaves is reported unfactored without a rho call
    rho_calls.clear()
    _assert_factorization(999983 * 1000003, factorize(999983 * 1000003, effort=0))
    with pytest.raises(BudgetError, match="unfactored cofactor 1000036000099$"):
        factorize(999983 * 1000003 * 1000033, effort=0)
    assert rho_calls == []


def test_factorize_sign_and_unit():
    fac = factorize(-12)
    assert fac.unit == -1
    assert fac.factors == ((2, 2), (3, 1))
    assert fac.value == -12


def test_factorize_example_discriminant():
    a, b = 1692602, -530052723915
    delta = 16 * b * b * (a * a - 4 * b)
    fac = factorize(delta)
    assert dict(fac.factors) == {
        2: 8, 3: 2, 5: 2, 11: 2, 13: 2, 17: 2, 19: 2, 23: 2, 29: 2, 31: 2,
        37: 3, 8420798017: 1,
    }


def test_padic_val():
    assert padic_val(2**15 * 23**10, 2) == 15
    assert padic_val(2**15 * 23**10, 23) == 10
    assert padic_val(7, 5) == 0
    with pytest.raises(DomainError):
        padic_val(0, 2)


def test_legendre_vs_sympy():
    for p in (3, 5, 7, 11, 13, 8420798017 % 10**4 + 3):
        if not is_prime(p):
            continue
        for a in range(0, 40):
            assert legendre(a, p) == sympy.legendre_symbol(a, p)


def test_sqrt_mod_every_residue():
    # 17, 41 and 97 are 1 mod 8, so Tonelli-Shanks runs its loop more than once
    for p in (7, 13, 17, 41, 97):
        for a in range(p):
            if legendre(a, p) == -1:
                continue
            r = sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a, (a, p)
            assert sqrt_mod(a - 3 * p, p) == r  # the input is reduced mod p first


def test_primes_below():
    assert primes_below(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_below(10**4)) == 1229
