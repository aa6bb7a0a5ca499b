import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from shascope.curves import (
    LongModel,
    ShortModel,
    bad_primes,
    delta_prime_factorization,
    invariants,
    minimize_short,
    p_minimize,
    reduction_report,
    to_short,
)
from shascope.errors import DomainError, SingularCubicError


EX3_LONG = LongModel(1, -1, 0, -332311, -73733731)
EX3_SHORT = ShortModel(-430675299, -3443997030498)
EX3_MIN = ShortModel(-5316979, -4724275762)


def test_invariants_vs_sympy_oracle():
    a1, a2, a3, a4, a6 = 1, -1, 0, -332311, -73733731
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    inv = invariants(EX3_LONG)
    assert (inv.b2, inv.b4, inv.b6, inv.b8) == (b2, b4, b6, b8)
    assert (inv.c4, inv.c6, inv.delta) == (c4, c6, delta)
    assert 1728 * delta == c4**3 - c6 * c6
    assert inv.j == sympy.Rational(c4**3, delta)
    assert inv.delta == -(2**7) * 23**10
    assert inv.c4 == 15950937


def test_singular_rejected():
    with pytest.raises(SingularCubicError):
        invariants(ShortModel(0, 0))
    with pytest.raises(SingularCubicError):
        invariants(ShortModel(-3, 2))  # (x-1)^2 (x+2)


def test_to_short_and_minimize_example():
    s = to_short(EX3_LONG)
    assert s == EX3_SHORT
    m, u = minimize_short(s)
    assert m == EX3_MIN and u == 3
    assert m.delta_prime() == 2**15 * 23**10


def test_short_delta_prime_relation():
    # delta'(-27c4, -54c6) = -2^8 3^12 delta for a long model
    inv = invariants(EX3_LONG)
    s = to_short(EX3_LONG)
    assert s.delta_prime() == -(2**8) * 3**12 * inv.delta


def _oracle_u(A, B):
    """Largest u with u^4 | A and u^6 | B, from sympy's factorint of gcd(A, B)."""
    u = 1
    for p in sympy.factorint(sympy.gcd(A, B)):
        ea = sympy.multiplicity(p, A) // 4 if A else None
        eb = sympy.multiplicity(p, B) // 6 if B else None
        u *= p ** min(e for e in (ea, eb) if e is not None)
    return u


def test_minimize_short_matches_factorint_oracle():
    rng = random.Random(20261020)
    zero_a = zero_b = 0
    for _ in range(600):
        a = rng.choice([0, rng.randint(-(10**5), 10**5)])
        b = rng.choice([0, rng.randint(-(10**5), 10**5)])
        u = 1
        for q in rng.sample([2, 3, 5, 7, 11, 13, 101], rng.randint(0, 3)):
            u *= q ** rng.randint(1, 3)
        model = ShortModel(a * u**4, b * u**6)
        if model.delta_prime() == 0:
            with pytest.raises(SingularCubicError):
                minimize_short(model)
            continue
        zero_a += a == 0
        zero_b += b == 0
        want_u = _oracle_u(model.A, model.B)
        got, got_u = minimize_short(model)
        assert got_u == want_u and want_u % u == 0
        assert got == ShortModel(model.A // want_u**4, model.B // want_u**6)
        assert model.delta_prime() == want_u**12 * got.delta_prime()
        assert _oracle_u(got.A, got.B) == 1
        for p in sympy.factorint(want_u):
            e = sympy.multiplicity(p, want_u)
            assert p_minimize(model, p) == ShortModel(model.A // p ** (4 * e), model.B // p ** (6 * e))
    assert zero_a > 50 and zero_b > 50


def test_p_minimize_fixture():
    p = 5
    m = ShortModel(p**4, 2 * p**6)
    assert p_minimize(m, p) == ShortModel(1, 2)


def test_reduction_kinds():
    # y^2 = x^3 + x + 1: delta' = 31, good at 2,3,5, bad at 31
    m = ShortModel(1, 1)
    assert reduction_report(m, 5).kind == "good"
    r31 = reduction_report(m, 31)
    assert r31.kind == "multiplicative"
    assert r31.split in ("split", "nonsplit")
    r23 = reduction_report(EX3_MIN, 23)
    assert r23.kind == "additive"
    assert (r23.ord_delta, r23.ord_c4, r23.ord_j) == (10, 4, 2)
    assert r23.potential == "potentiallyGood"


def test_reduction_report_tests_p_prime_once(monkeypatch):
    # a probable-prime test of a p of thousands of bits takes seconds
    from shascope import arith, curves

    calls = []

    def counting(n, _is_prime=arith.is_prime):
        calls.append(n)
        return _is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.setattr(curves, "is_prime", counting)
    for model, p, kind in ((ShortModel(1, 1), 5, "good"), (ShortModel(1, 1), 31, "multiplicative"),
                           (EX3_MIN, 23, "additive")):
        calls.clear()
        assert reduction_report(model, p).kind == kind
        assert calls == [p]
    for p in (1, 8):
        with pytest.raises(DomainError, match=f"{p} is not prime"):
            reduction_report(ShortModel(1, 1), p)


def test_reduction_small_prime_caveat():
    r2 = reduction_report(EX3_MIN, 2)
    assert r2.caveat is not None
    assert r2.ord_j == -7
    assert r2.potential == "potentiallyMultiplicative"


def test_split_multiplicative_classification():
    # the smooth points of a nodal cubic over F_p, infinity included, number
    # p - 1 when the node is split and p + 1 when it is nonsplit
    seen = {"split": 0, "nonsplit": 0}
    for A in range(-6, 7):
        for B in range(-6, 7):
            m = ShortModel(A, B)
            if m.delta_prime() == 0:
                continue
            for p in sympy.primefactors(m.delta_prime()):
                if not 5 <= p < 200:
                    continue
                r = reduction_report(m, p)
                if r.kind != "multiplicative":
                    continue
                count, sing = 1, []
                for x in range(p):
                    for y in range(p):
                        if (y * y - (x**3 + A * x + B)) % p == 0:
                            # the node has 3x^2 + A = 0 = 2y
                            if (3 * x * x + A) % p == 0 and y == 0:
                                sing.append((x, y))
                            else:
                                count += 1
                assert len(sing) == 1
                assert count == (p - 1 if r.split == "split" else p + 1), (A, B, p)
                seen[r.split] += 1
    assert seen["split"] >= 5 and seen["nonsplit"] >= 5


def test_bad_primes_semistable_fixture():
    reports = bad_primes(ShortModel(1, 1))
    assert [r.p for r in reports] == [31]
    assert reports[0].kind == "multiplicative"


def test_bad_primes_example3():
    reports = bad_primes(EX3_SHORT)
    assert [r.p for r in reports] == [2, 23]


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(min_value=-10**6, max_value=10**6)] * 5))
def test_invariant_identities_property(coeffs):
    model = LongModel(*coeffs)
    try:
        inv = invariants(model)
    except SingularCubicError:
        return
    assert 1728 * inv.delta == inv.c4**3 - inv.c6**2
    assert inv.j == sympy.Rational(inv.c4**3, inv.delta)
    # minimization preserves the j-invariant
    m, u = minimize_short(to_short(model))
    assert invariants(m).j == inv.j
    assert to_short(model).delta_prime() == m.delta_prime() * u**12


def test_delta_prime_factorization():
    m, fac = delta_prime_factorization(EX3_SHORT)
    assert m == EX3_MIN
    assert dict(fac.factors) == {2: 15, 23: 10}
