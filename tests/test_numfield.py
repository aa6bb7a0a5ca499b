import random
from fractions import Fraction

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
    _inverse_root_sum,
    alpha_trace_direct,
    alpha_trace_step8,
    cor6_check,
    cor7_check,
)
from shascope.poly import ZZ, ExactPoly

CURVE_A = ShortModel(1, 1)  # delta' = 31
CURVE_B = ShortModel(-2, 3)  # delta' = 211


def _companion_trace(a, b, x, y):
    """Tr(x(C) y(C)^-1) by sympy, with C the companion matrix of Y^3 + aY + b."""
    C = sympy.Matrix([[0, 0, -b], [1, 0, -a], [0, 1, 0]])

    def at(t):
        return t[0] * sympy.eye(3) + t[1] * C + t[2] * C * C

    want = (at(x) * at(y).inv()).trace()
    return Fraction(int(want.p), int(want.q))


def test_trace_quotient_matches_companion_matrix_oracle():
    # x / y in Z[Y]/(Y^3 + aY + b) against matrices over Q, on random
    # elements with 100-bit coefficients
    rng = random.Random(21)

    def big():
        return rng.randrange(-(2**100), 2**100)

    for _ in range(200):
        a, b = big(), big()
        x, y = (tuple(big() for _ in range(3)) for _ in range(2))
        assert QuotRing(a, b).trace_quotient(x, y) == _companion_trace(a, b, x, y), (a, b, x, y)


def test_trace_quotient_small_cases_and_zero_norm():
    K = QuotRing(-1, 0)  # Y^3 - Y = Y (Y - 1) (Y + 1)
    assert K.reduce(ExactPoly.from_ints(ZZ, [0, 0, 0, 0, 1])) == (0, 0, 1)  # Y^4 = Y^2
    assert K.trace_quotient((0, 0, 1), (1, 0, 0)) == 2  # Tr Y^2 = -2a
    assert K.trace_quotient((7, 0, 0), (2, 0, 0)) == Fraction(21, 2)
    # y = Y shares the root 0 with Y^3 - Y
    with pytest.raises(InvariantViolation, match="norm 0"):
        K.trace_quotient((1, 0, 0), (0, 1, 0))


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


def _power_sums(g, upto):
    """Newton power sums p_0..p_upto of the roots of g (int coefficients, constant first)."""
    c = [Fraction(v, g[-1]) for v in g]
    d = len(c) - 1
    p = [Fraction(d)]
    for k in range(1, upto + 1):
        s = sum((c[d - i] * p[k - i] for i in range(1, min(k - 1, d) + 1)), Fraction(0))
        if k <= d:
            s += k * c[d - k]
        p.append(-s)
    return p


def test_inverse_root_sum_matches_degree_n_oracle():
    # the residue route against sum(1/h(r)) = Tr(1/h) in Q[X]/(g_{ell^n}),
    # with the inverse by sympy over QQ and the trace by Newton power sums;
    # nonzero values, unlike S, which is 0 on every curve. h runs over
    # psi + 1 and a fixed cubic
    X = sympy.Symbol("X")
    for model in (CURVE_A, CURVE_B):
        table = DivisionTable(ZZ, model.A, model.B)
        for ell, n in ((5, 1), (7, 1), (5, 2)):
            g = quotient_g(table, ell, n)
            g_qq = sympy.Poly(g.coeffs[::-1], X, domain="QQ")
            ps = _power_sums(g.coeffs, g.degree() - 1)
            for a, b in ((model.A, model.B + 1), (-1, 3)):
                inv = sympy.invert(sympy.Poly([1, 0, a, b], X, domain="QQ"), g_qq)
                want = sum(
                    (Fraction(int(c.p), int(c.q)) * ps[i] for i, c in enumerate(inv.all_coeffs()[::-1])),
                    Fraction(0),
                )
                assert want != 0
                assert _inverse_root_sum(model, ell, n, QuotRing(a, b)) == want, (model, ell, n, a, b)


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


@pytest.mark.parametrize("delta", [(1, 1), (0, 0, 3)], ids=["1+X", "3X^2"])
def test_alpha_trace_step8_nonzero_on_a_perturbed_f_ell(monkeypatch, delta):
    # step 8 is 0 on every curve, because f_ell'(e) = 0 at each root e of psi
    # (see test_f_n_derivative_vanishes_mod_psi_for_odd_n); with f_ell + delta
    # in place of f_ell its value is nonzero and must match the root-by-root sum
    dpoly = ExactPoly.from_ints(ZZ, list(delta))
    for ell in (5, 7):
        monkeypatch.setattr(
            numfield,
            "ReducedTable",
            lambda ring, A, B, M: _PerturbedTable(ReducedTable(ring, A, B, M), ell, dpoly),
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
