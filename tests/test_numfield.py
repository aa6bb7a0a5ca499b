import random

import mpmath as mp
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shascope import numfield
from shascope.curves import ShortModel
from shascope.divpoly import DivisionTable, ReducedTable, quotient_g, symbolic_table
from shascope.errors import DomainError, InvariantViolation
from shascope.numfield import (
    QuotRing,
    alpha_trace_direct,
    alpha_trace_step8,
    cor6_check,
    cor7_check,
)
from shascope.poly import ZZ, ExactPoly

CURVE_A = ShortModel(1, 1)  # delta' = 31
CURVE_B = ShortModel(-2, 3)  # delta' = 211


def _companion_norm(a, b, y):
    """det y(C) by sympy, with C the companion matrix of Y^3 + aY + b."""
    C = sympy.Matrix([[0, 0, -b], [1, 0, -a], [0, 1, 0]])
    return int((y[0] * sympy.eye(3) + y[1] * C + y[2] * C * C).det())


def test_norm_matches_companion_matrix_oracle():
    # N(y) in Z[Y]/(Y^3 + aY + b) against the determinant over Z, on random
    # elements with 100-bit coefficients
    rng = random.Random(21)

    def big():
        return rng.randrange(-(2**100), 2**100)

    for _ in range(200):
        a, b = big(), big()
        y = tuple(big() for _ in range(3))
        assert QuotRing(a, b).norm(y) == _companion_norm(a, b, y), (a, b, y)


def test_norm_small_cases_and_zero_norm():
    K = QuotRing(-1, 0)  # Y^3 - Y = Y (Y - 1) (Y + 1)
    assert K.reduce(ExactPoly.from_ints(ZZ, [0, 0, 0, 0, 1])) == (0, 0, 1)  # Y^4 = Y^2
    assert K.norm((2, 0, 0)) == 8
    assert K.norm((2, 1, 0)) == 2 * 3 * 1  # Y + 2 at the roots 0, 1, -1
    # y = Y shares the root 0 with Y^3 - Y
    assert K.norm((0, 1, 0)) == 0


def test_cor6_zero_trace():
    for ell in (5, 7, 11, 13):
        assert cor6_check(CURVE_A, ell, 1)
    assert cor6_check(CURVE_A, 5, 2)
    assert cor6_check(CURVE_B, 5, 2)
    # above the full table's degree ceiling: f_37, f_49 and f_{7^300}
    assert cor6_check(CURVE_A, 37, 1) and cor6_check(CURVE_B, 7, 2)
    assert cor6_check(CURVE_A, 7, 300)


def test_cor7_symbolic_and_concrete():
    assert cor7_check(None, 3)
    assert cor7_check(None, 5)
    assert cor7_check(CURVE_A, 5)
    assert cor7_check(None, 37) and cor7_check(CURVE_B, 37)


def test_alpha_trace_direct_is_zero_and_matches_numeric():
    res = alpha_trace_direct(CURVE_A, 5, 1)
    assert res.S == 0 and res.degree == 12
    # numeric oracle: sum of ell^3 delta' / psi(x) over roots of f_5
    t = DivisionTable(ZZ, 1, 1)
    g = quotient_g(t, 5, 1)
    with mp.workprec(120):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(g.coeffs)])
        terms = [1 / (x**3 + x + 1) for x in roots]
        assert abs(sum(terms) * 125 * 31 / 12) < mp.mpf(10) ** -20
        assert max(abs(t) for t in terms) > 0.1  # the sum cancels; no term is tiny


@settings(max_examples=25, deadline=None)
@given(st.integers(-100, 100), st.integers(-100, 100), st.sampled_from((5, 7, 11, 13)), st.sampled_from((1, 2)))
def test_alpha_trace_direct_is_zero_on_random_curves(A, B, ell, n):
    dp = ShortModel(A, B).delta_prime()
    assume(dp % ell != 0)  # also rules out delta' = 0
    assert alpha_trace_direct(ShortModel(A, B), ell, n).S == 0


def test_alpha_trace_direct_at_7_2_matches_step8():
    # f_49 (degree 1200) is above the table's degree ceiling; the table
    # mod psi^2 never builds it
    for model in (CURVE_A, CURVE_B):
        res = alpha_trace_direct(model, 7, 2)
        assert res.degree == 1176
        assert res.S == alpha_trace_step8(model, 7)


def test_alpha_trace_step8_matches_direct_level2():
    for m in (CURVE_A, CURVE_B):
        direct = alpha_trace_direct(m, 5, 2)
        pred = alpha_trace_step8(m, 5)
        assert pred == direct.S


def test_alpha_trace_step8_above_the_degree_ceiling():
    # f_38 (degree 720) is above the table's degree ceiling; step 8 reads
    # f_ell and f_{ell+-1} mod psi^2, so only ALPHA_N_CEILING caps ell
    for model in (CURVE_A, CURVE_B):
        for ell in (37, 101):
            assert alpha_trace_step8(model, ell) == 0


def test_alpha_trace_preconditions():
    with pytest.raises(DomainError):
        alpha_trace_direct(CURVE_A, 31, 1)  # ell | delta'
    with pytest.raises(DomainError):
        alpha_trace_direct(CURVE_A, 3, 1)  # ell too small
    with pytest.raises(DomainError):
        alpha_trace_direct(CURVE_A, 5, 3)  # level too deep


class _PerturbedTable:
    """A real ReducedTable whose f(ell) returns R_ell + delta.

    A wrapper, not a subclass: the table's own recursion still reads the
    exact f_k, so only the f_ell that the caller sees is perturbed. delta has
    degree below that of the modulus psi^2, so R_ell + delta is
    (f_ell + delta) mod psi^2.
    """

    def __init__(self, table, ell, delta):
        self._table, self._ell, self._delta = table, ell, delta

    def f(self, n):
        fn = self._table.f(n)
        return fn + self._delta if n == self._ell else fn

    def __getattr__(self, name):
        return getattr(self._table, name)


def _step8_oracle(model, ell, delta):
    """ell^3 delta' / (ell^2 d) * sum over psi(e) = 0, g(lam) = 0 of
    -(h0(e) - lam t(e)) / ((e - lam) f(e)^2 psi'(e)), with f = f_ell + delta,
    by mpmath roots at 60 digits."""
    table = DivisionTable(ZZ, model.A, model.B)
    f = table.f(ell) + delta
    fm, fp = table.f(ell - 1), table.f(ell + 1)

    def ev(p, x):
        return mp.polyval([mp.mpf(c) for c in reversed(p.coeffs)], x)

    with mp.workdps(60):
        es = mp.polyroots([1, 0, model.A, model.B], maxsteps=200, extraprec=200)
        lams = mp.polyroots([mp.mpf(c) for c in reversed(f.coeffs)], maxsteps=400, extraprec=800)
        total = mp.mpc(0)
        for e in es:
            fe, fde = ev(f, e), ev(f.derivative(), e)
            h0 = fe**2 + 2 * e * fe * fde - ev(fm, e) * ev(fp, e) * (3 * e**2 + model.A)
            t = 2 * fe * fde
            for lam in lams:
                total -= (h0 - lam * t) / ((e - lam) * fe**2 * (3 * e**2 + model.A))
        d = f.degree()
        return mp.mpf(ell**3 * model.delta_prime()) / (ell**2 * d) * total


def _perturb(monkeypatch, k, dpoly):
    """Make numfield's ReducedTable return R_k + dpoly for f(k)."""
    monkeypatch.setattr(
        numfield,
        "ReducedTable",
        lambda ring, A, B, M: _PerturbedTable(ReducedTable(ring, A, B, M), k, dpoly),
    )


@pytest.mark.parametrize("delta", [(1, 1), (0, 0, 3)], ids=["1+X", "3X^2"])
def test_alpha_trace_step8_nonzero_on_a_perturbed_f_ell(monkeypatch, delta):
    # step 8 is 0 on every curve, because f_ell'(e) = 0 at each root e of psi
    # (see test_f_n_derivative_vanishes_mod_psi_for_odd_n); with f_ell + delta
    # in place of f_ell, f_ell' mod psi is delta' != 0 and the root-by-root
    # sum is nonzero, so step 8 must refuse rather than return 0
    dpoly = ExactPoly.from_ints(ZZ, list(delta))
    for ell in (5, 7):
        _perturb(monkeypatch, ell, dpoly)
        for model in (CURVE_A, CURVE_B):
            want = _step8_oracle(model, ell, dpoly)
            with mp.workdps(60):
                assert abs(want.imag) < mp.mpf(10) ** -40 * abs(want)
                assert abs(want.real) > mp.mpf(10) ** -10
            with pytest.raises(InvariantViolation, match=f"^f_{ell}' is not 0 mod psi$"):
                alpha_trace_step8(model, ell)


def test_alpha_trace_bound_check_rejects_a_large_q_part(monkeypatch):
    # alpha_trace_direct returns its 0 only once f_k' = 0 mod psi holds for
    # both k = ell^n and ell^(n-1); a perturbed f_q, q = ell^n, makes it
    # refuse, at n = 1 and at n = 2 where f_25 is the larger prime-power part
    dpoly = ExactPoly.from_ints(ZZ, [1, 1])
    for ell, n in ((5, 1), (7, 1), (5, 2)):
        q = ell**n
        _perturb(monkeypatch, q, dpoly)
        for model in (CURVE_A, CURVE_B):
            with pytest.raises(InvariantViolation, match=f"^f_{q}' is not 0 mod psi$"):
                alpha_trace_direct(model, ell, n)


def test_alpha_trace_rejects_an_f_ell_vanishing_at_the_roots_of_psi(monkeypatch):
    # f_ell replaced by 0 mod psi^2: f_ell' = 0 mod psi holds, but the norm
    # of f_ell mod psi is 0, so the closed forms would divide by 0
    def zero_f_ell(ring, A, B, M):
        table = ReducedTable(ring, A, B, M)
        return _PerturbedTable(table, 5, -table.f(5))

    monkeypatch.setattr(numfield, "ReducedTable", zero_f_ell)
    for model in (CURVE_A, CURVE_B):
        with pytest.raises(InvariantViolation, match="^f_5 has norm 0 mod psi"):
            alpha_trace_step8(model, 5)
        with pytest.raises(InvariantViolation, match="^f_5 has norm 0 mod psi"):
            alpha_trace_direct(model, 5, 1)


def test_f_n_derivative_vanishes_mod_psi_for_odd_n():
    # why step 8 is 0: f_n'(e) = 0 at every root e of psi for odd n, over
    # Z[A,B]; for even n >= 4 (f_n = psi_n / y) it does not vanish
    table = symbolic_table()
    for n in [*range(1, 16, 2), *range(4, 15, 2)]:
        r = table.f(n).derivative().mod(table.psi)
        assert r.is_zero() == (n % 2 == 1), n
