import pytest
import sympy

from shascope.divpoly import (
    DivisionTable,
    ReducedTable,
    TopTable,
    check_lemma5,
    quotient_g,
    symbolic_table,
    torsion_test,
    verify_eq46,
)
from shascope.errors import BudgetError, DomainError
from shascope.ffcurve import INFINITY, FpCurve, enumerate_points, scalar_mul
from shascope.poly import ZZ, ExactPoly, Fp

from divpoly_oracle import build_phi, psi_squared


# f_5 for y^2 = x^3 + Ax + B, low-to-high coefficients (independent expansion)
F5_COEFFS = lambda A, B: [
    A**6 - 32 * A**3 * B**2 - 256 * B**4,
    -100 * A**4 * B - 640 * A * B**3,
    -50 * A**5 - 240 * A**2 * B**2,
    -80 * A**3 * B - 1600 * B**3,
    -125 * A**4 - 1920 * A * B**2,
    -696 * A**2 * B,
    -300 * A**3 - 240 * B**2,
    240 * A * B,
    -105 * A**2,
    380 * B,
    62 * A,
    0,
    5,
]


def table_11():
    return DivisionTable(ZZ, 1, 1)


def test_f5_against_frozen_expansion():
    t = table_11()
    assert list(t.f(5).coeffs) == F5_COEFFS(1, 1)
    t2 = DivisionTable(ZZ, -2, 3)
    assert list(t2.f(5).coeffs) == F5_COEFFS(-2, 3)


def test_f_against_sympy_oracle():
    # independent recomputation via sympy's division polynomials
    x = sympy.symbols("x")
    for A, B in ((1, 1), (-5, 8)):
        t = DivisionTable(ZZ, A, B)
        ys = x**3 + A * x + B  # y^2 on the curve
        f = {1: sympy.Integer(1), 2: sympy.Integer(2)}
        f[3] = 3 * x**4 + 6 * A * x**2 + 12 * B * x - A**2
        f[4] = 4 * (
            x**6 + 5 * A * x**4 + 20 * B * x**3 - 5 * A**2 * x**2 - 4 * A * B * x
            - 8 * B**2 - A**3
        )
        for n in range(5, 14):
            m = n // 2
            if n % 2 == 1:
                if m % 2 == 0:
                    f[n] = sympy.expand(f[m + 2] * f[m] ** 3 * ys**2 - f[m + 1] ** 3 * f[m - 1])
                else:
                    f[n] = sympy.expand(f[m + 2] * f[m] ** 3 - f[m + 1] ** 3 * f[m - 1] * ys**2)
            else:
                f[n] = sympy.expand(
                    f[m] * (f[m + 2] * f[m - 1] ** 2 - f[m - 2] * f[m + 1] ** 2) / 2
                )
        for n in range(1, 14):
            got = sympy.Poly(f[n], x).all_coeffs()[::-1] if f[n] != 1 else [1]
            assert [int(c) for c in got] == [int(c) for c in t.f(n).coeffs], (A, B, n)


def test_lemma5_symbolic_small():
    t = symbolic_table()
    for n in range(1, 13):
        assert check_lemma5(t, n)


def _top_of_full(full, n):
    """The top two coefficients of the full table's f_n, leading first, trimmed."""
    d = full.expected_degree(n)
    return ExactPoly.make(full.ring, [full.f(n).coeff(d - i) for i in range(min(2, d + 1))])


def test_top_table_equals_the_top_of_the_full_table():
    for A, B in ((1, 1), (-2, 3), (1000, -777)):
        full, top = DivisionTable(ZZ, A, B), TopTable(ZZ, A, B)
        for n in range(31):
            assert top.f(n) == _top_of_full(full, n), (A, B, n)
    sym = symbolic_table()
    for n in range(21):
        assert sym.top.f(n) == _top_of_full(sym, n), n


def test_check_lemma5_over_fp_equals_the_full_table_bool():
    # p | n included: there the X^{d_n} coefficient n vanishes mod p
    for p in (5, 7):
        full = DivisionTable(Fp(p), 1, 1)
        for n in range(1, 31):
            fn, d = full.f(n), full.expected_degree(n)
            want = fn.degree() == d and fn.lc() == n % p and (d == 0 or not fn.coeff(d - 1))
            assert check_lemma5(full, n) == want == (n % p != 0), (p, n)


def test_top_table_at_a_large_index_and_its_ceiling():
    # built bottom-up: n = 7^300 (843 bits) raises no RecursionError
    assert check_lemma5(symbolic_table(), 7**300)
    top = TopTable(ZZ, 1, 1)
    assert top.f(2**1024 - 1).coeffs == (2**1024 - 1,)
    with pytest.raises(BudgetError, match="f_n for n of 1025 bits exceeds ceiling 1024 bits"):
        top.f(2**1024)
    # every table kind refuses n < 0 before its recursion runs
    psi = ExactPoly.from_ints(ZZ, [1, 1, 0, 1])
    for table in (DivisionTable(ZZ, 1, 1), ReducedTable(ZZ, 1, 1, psi * psi), top):
        with pytest.raises(DomainError, match="f_n defined for n >= 0"):
            table.f(-1)


def test_recursion_terms_share_a_degree():
    # the formal-degree claim reversal rests on: both terms of each difference
    # in the recursion have formal degree d_n (d_n - d_m inside the bracket of
    # f_{2m}). For fixed parities of n and m both sides are quadratics in m, so
    # agreement on these n proves it for every n >= 5
    d = DivisionTable.expected_degree
    for n in range(5, 2000):
        m = n // 2
        if n % 2 == 0:
            assert d(m + 2) + 2 * d(m - 1) == d(m - 2) + 2 * d(m + 1) == d(n) - d(m), n
        else:
            psi2 = 6  # deg psi^2, on the f_{m+2} term for even m and the f_{m+1} term for odd m
            da = d(m + 2) + 3 * d(m) + psi2 * (m % 2 == 0)
            db = 3 * d(m + 1) + d(m - 1) + psi2 * (m % 2)
            assert da == db == d(n), n


def test_degree_ceiling_budget(monkeypatch):
    # deg f_38 = (38^2 - 4)/2 = 720 > 700: refused before any multiplication
    t = DivisionTable(ZZ, 1, 1)
    calls = []
    mul = ExactPoly.__mul__
    monkeypatch.setattr(ExactPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    with pytest.raises(BudgetError, match="f_38 degree 720 exceeds ceiling 700"):
        t.f(38)
    assert calls == []
    assert t.f(37).degree() == 684  # (37^2 - 1)/2 is within the ceiling


def test_quotient_g_exactness_and_degree():
    t = table_11()
    g = quotient_g(t, 3, 2)
    assert g.degree() == (3**4 - 3**2) // 2
    assert g.lc() == 3
    assert (g * t.f(3) - t.f(9)).is_zero()


def test_eq46_identity_concrete_and_symbolic():
    assert verify_eq46(table_11())
    assert verify_eq46(symbolic_table())


def test_build_phi_shape():
    t = table_11()
    for m, lam in ((2, 3), (3, 2), (5, 1)):
        phi = build_phi(t, m, lam)
        assert phi.degree() == m * m
        assert phi.lc() == 1
        assert phi.coeff(m * m - 1) == -lam * m * m
    # build_phi is affine in lam, as cor7_check reads it: three values of lam
    # rule out a hidden lam^2 term
    for m in range(1, 8):
        for lam in (-3, 1, 5):
            assert build_phi(t, m, lam) == build_phi(t, m, 0) - psi_squared(t, m) * ExactPoly.const(ZZ, lam)


def _w(table, k, x, y):
    """Psi'_k(x, y) evaluated in the (field) coefficient ring."""
    v = table.f(k).evaluate(x)
    return v * y if k % 2 == 0 else v


def mul_point_formula(table, x, y, a):
    """Coordinates of [a]P for P = (x, y) and a >= 2, field ring required.

    x([a]P) = x - Psi'_{a-1} Psi'_{a+1} / (Psi'_a)^2
    y([a]P) = (Psi'_{a+2} Psi'_{a-1}^2 - Psi'_{a-2} Psi'_{a+1}^2) / (4 y (Psi'_a)^3)
    For a = 2 this reduces to the duplication identity x([2]P) = phi(x)/(4 psi(x)).
    """
    r = table.ring
    wa = _w(table, a, x, y)
    wa2 = wa * wa
    if not wa2:  # over F_p a product of reduced residues is 0 only if a factor is
        raise DomainError(f"point is {a}-torsion; [a]P = O")
    wm1, wp1 = _w(table, a - 1, x, y), _w(table, a + 1, x, y)
    # one exact division each, which also reduces the value over F_p
    xa = r.exact_div(x * wa2 - wm1 * wp1, wa2)
    num_y = _w(table, a + 2, x, y) * wm1 * wm1 - _w(table, a - 2, x, y) * wp1 * wp1
    ya = r.exact_div(num_y, 4 * y * wa2 * wa)
    return xa, ya


def test_mul_point_formula_matches_group_law():
    # DivisionTable.f over F_101 on y^2 = x^3 + x + 1, through the
    # multiplication formulas, against chord-tangent arithmetic
    p = 101
    curve = FpCurve(p, 1, 1)
    t = DivisionTable(Fp(p), 1 % p, 1 % p)
    pts = [pt for pt in enumerate_points(curve) if pt is not INFINITY]
    for pt in pts[:20]:
        for a in range(2, 8):
            expected = scalar_mul(curve, a, pt)
            if expected is INFINITY:
                with pytest.raises(DomainError):
                    mul_point_formula(t, pt[0], pt[1], a)
            else:
                assert mul_point_formula(t, pt[0], pt[1], a) == expected


def test_torsion_test_matches_scalar_mul():
    p = 23
    curve = FpCurve(p, 4, 4)
    t = DivisionTable(Fp(p), 4, 4)
    for pt in enumerate_points(curve):
        if pt is INFINITY:
            continue
        for n in range(1, 13):
            assert torsion_test(t, pt[0], pt[1], n) == (scalar_mul(curve, n, pt) is INFINITY)


def test_reduced_table_is_f_n_mod_the_modulus():
    # over ZZ: psi^2 and a monic cubic squared, halving included
    for A, B in ((1, 1), (-2, 3)):
        full = DivisionTable(ZZ, A, B)
        cubic = ExactPoly.from_ints(ZZ, [3, -1, 2, 1])
        for M in (full.psi * full.psi, cubic * cubic):
            red = ReducedTable(ZZ, A, B, M)
            for n in range(31):
                assert red.f(n) == full.f(n).mod(M), (A, B, M, n)


def test_f_poly_zero_and_identity():
    t = table_11()
    assert t.f(0).is_zero()
    assert t.f(1).coeffs == (1,)
