from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shascope import numfield
from shascope.curves import ShortModel
from shascope.divpoly import DivisionTable, quotient_g, symbolic_table
from shascope.errors import DomainError, InvariantViolation, NotInvertibleError
from shascope.numfield import (
    QuotRing,
    _inverse_root_sum,
    alpha_trace_direct,
    alpha_trace_step8,
    cor6_check,
    cor7_check,
    invert_mod,
    trace_in_ring,
)
from shascope.poly import QQ, ZZ, ExactPoly

CURVE_A = ShortModel(1, 1)  # delta' = 31
CURVE_B = ShortModel(-2, 3)  # delta' = 211


def test_power_sums_companion_matrix_oracle():
    # power sums of x^3 - 2x + 5 via sympy companion-matrix traces
    g = ExactPoly.from_ints(QQ, [5, -2, 0, 1])
    ring = QuotRing(g)
    M = sympy.Matrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    P = sympy.eye(3)
    for k in range(8):
        assert ring.power_sums(7)[k] == P.trace()
        P = P * M


def test_trace_in_ring_linearity_and_constants():
    g = ExactPoly.from_ints(QQ, [5, -2, 0, 1])
    ring = QuotRing(g)
    c = ExactPoly.from_ints(QQ, [7])
    assert trace_in_ring(ring, c) == 21  # deg * 7
    x = ExactPoly.from_ints(QQ, [0, 1])
    assert trace_in_ring(ring, x) == 0  # no x^2 term


def test_invert_mod_and_noninvertible():
    g = ExactPoly.from_ints(QQ, [-1, 0, 1])  # (x-1)(x+1)
    ring = QuotRing(g)
    e = ExactPoly.from_ints(QQ, [1, 1])  # x + 1, shares a factor
    with pytest.raises(NotInvertibleError):
        invert_mod(ring, e)
    u = ExactPoly.from_ints(QQ, [2, 1])
    inv = invert_mod(ring, u)
    assert ring.reduce(inv * u).coeffs == (Fraction(1),)


def test_squarefree_rejected():
    g = ExactPoly.from_ints(QQ, [1, 2, 1])  # (x+1)^2
    with pytest.raises(DomainError):
        QuotRing(g)


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


def test_alpha_trace_element_override():
    # the degree-12 oracle ring of alpha traces at (5, 1): a constant 3 over
    # Q[X]/(f_5) traces to 3 * 12
    ring = QuotRing(quotient_g(DivisionTable(ZZ, 1, 1), 5, 1))
    assert trace_in_ring(ring, ExactPoly.from_ints(QQ, [3])) == 3 * 12


def test_inverse_root_sum_matches_degree_n_oracle():
    # the residue route against sum(1/h(r)) = Tr(1/h) in Q[X]/(g_{ell^n});
    # nonzero values, unlike S, which is 0 on every curve. h runs over psi + 1,
    # a cubic, a rational root and a non-monic quadratic
    for model in (CURVE_A, CURVE_B):
        table = DivisionTable(ZZ, model.A, model.B)
        hs = ([model.B + 1, model.A, 0, 1], [3, -1, 2, 1], [-7, 1], [1, 0, 2])
        for ell, n in ((5, 1), (7, 1), (5, 2)):
            ring = QuotRing(quotient_g(table, ell, n))
            for h in (ExactPoly.from_ints(QQ, c) for c in hs):
                want = trace_in_ring(ring, invert_mod(ring, h))
                assert want != 0
                assert _inverse_root_sum(model, ell, n, h) == want, (model, ell, n, h)


def test_alpha_trace_bound_check_rejects_a_large_q_part(monkeypatch):
    # S is 0 on every curve, so the check is exact: any nonzero S raises,
    # here S = 5^3 * 31 / (11 * 12) from a substituted root sum
    monkeypatch.setattr(numfield, "_inverse_root_sum", lambda *args: Fraction(1, 11))
    with pytest.raises(InvariantViolation, match="S = 3875/132 is not 0"):
        alpha_trace_direct(CURVE_A, 5, 1)


def test_alpha_trace_direct_at_7_2_matches_step8():
    # f_49 (degree 1200) is above the table's degree ceiling; the residue
    # route never builds it
    for model in (CURVE_A, CURVE_B):
        res = alpha_trace_direct(model, 7, 2)
        assert res.degree == 1176
        assert res.S == alpha_trace_step8(model, 7)


def test_alpha_trace_step8_matches_direct_level2():
    for m in (CURVE_A, CURVE_B):
        direct = alpha_trace_direct(m, 5, 2)
        pred = alpha_trace_step8(m, 5)
        assert pred == direct.S


def test_alpha_trace_preconditions():
    with pytest.raises(DomainError):
        alpha_trace_direct(CURVE_A, 31, 1)  # ell | delta'
    with pytest.raises(DomainError):
        alpha_trace_direct(CURVE_A, 3, 1)  # ell too small
    with pytest.raises(DomainError):
        alpha_trace_direct(CURVE_A, 5, 3)  # level too deep


class _PerturbedTable:
    """A real DivisionTable whose f(ell) returns f_ell + delta.

    A wrapper, not a subclass: the table's own recursion still reads the
    exact f_k, so only the f_ell that the caller sees is perturbed.
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


@pytest.mark.parametrize("delta", [(1, 1), (0, 0, 3)], ids=["1+X", "3X^2"])
def test_alpha_trace_step8_nonzero_on_a_perturbed_f_ell(monkeypatch, delta):
    # step 8 is 0 on every curve, because f_ell'(e) = 0 at each root e of psi
    # (see test_f_n_derivative_vanishes_mod_psi_for_odd_n); with f_ell + delta
    # in place of f_ell its value is nonzero and must match the root-by-root sum
    dpoly = ExactPoly.from_ints(ZZ, list(delta))
    for ell in (5, 7):
        monkeypatch.setattr(
            numfield, "DivisionTable", lambda ring, A, B: _PerturbedTable(DivisionTable(ring, A, B), ell, dpoly)
        )
        for model in (CURVE_A, CURVE_B):
            got = alpha_trace_step8(model, ell)
            want = _step8_oracle(model, ell, dpoly)
            assert got != 0
            with mp.workdps(60):
                assert abs(want.imag) < mp.mpf(10) ** -40 * abs(want)
                assert abs(mp.mpf(got.numerator) / got.denominator - want.real) < mp.mpf(10) ** -30 * abs(want)


def test_f_n_derivative_vanishes_mod_psi_for_odd_n():
    # why step 8 is 0: f_n'(e) = 0 at every root e of psi for odd n, over
    # Z[A,B]; for even n >= 4 (f_n = psi_n / y) it does not vanish
    table = symbolic_table()
    for n in [*range(1, 16, 2), *range(4, 15, 2)]:
        r = table.f(n).derivative().mod(table.psi)
        assert r.is_zero() == (n % 2 == 1), n
