from fractions import Fraction

import pytest

from shascope.errors import DomainError, InvariantViolation
from shascope.poly import (
    QQ,
    ZAB,
    ZZ,
    ExactPoly,
    Fp,
    MPoly,
    ext_gcd_qq,
    poly_gcd,
)


def P(*ints):
    return ExactPoly.from_ints(ZZ, list(ints))


def test_basic_ring_ops():
    a = P(1, 2, 3)  # 3x^2 + 2x + 1
    b = P(0, 1)  # x
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - a).is_zero()
    assert (a * b).coeffs == (0, 1, 2, 3)
    assert a.degree() == 2 and a.lc() == 3
    assert a.evaluate(2) == 17


def test_zero_degree_convention():
    assert P().degree() == -1
    assert P(0, 0).is_zero()


def test_divmod_and_exact_div():
    a = P(-1, 0, 1)  # x^2 - 1
    b = P(-1, 1)  # x - 1
    q = a.exact_div(b)
    assert q.coeffs == (1, 1)
    with pytest.raises(InvariantViolation):
        P(1, 0, 1).exact_div(b)


def test_mod_over_qq():
    a = ExactPoly.from_ints(QQ, [1, 0, 0, 1])  # x^3 + 1
    m = ExactPoly.from_ints(QQ, [1, 1])  # x + 1
    assert a.mod(m).is_zero()


def test_derivative_and_shift():
    a = P(5, 0, 3)
    assert a.derivative().coeffs == (0, 6)
    assert a.shift(2).coeffs == (0, 0, 5, 0, 3)


def test_fp_arithmetic():
    F7 = Fp(7)
    a = ExactPoly.from_ints(F7, [6, 1])  # x + 6 = x - 1
    b = ExactPoly.from_ints(F7, [1, 1])
    assert (a * b).coeffs == (6, 0, 1)  # x^2 - 1 mod 7


def test_poly_gcd_qq():
    # (x-1)^2 (x+2) and (x-1)(x+3)
    a = ExactPoly.from_ints(QQ, [2, -3, 0, 1])
    b = ExactPoly.from_ints(QQ, [-3, 2, 1])
    g = poly_gcd(a, b)
    assert g.coeffs == (Fraction(-1), Fraction(1))  # monic x - 1


def test_poly_gcd_fp():
    F = Fp(101)
    # (2x + 3)(x^2 + 1)(x - 5) and (2x + 3)(x - 5)^2 (x + 7) over F_101
    common = ExactPoly.from_ints(F, [3, 2]) * ExactPoly.from_ints(F, [-5, 1])
    a = common * ExactPoly.from_ints(F, [1, 0, 1])
    b = common * ExactPoly.from_ints(F, [-5, 1]) * ExactPoly.from_ints(F, [7, 1])
    g = poly_gcd(a, b)
    assert g == common.monic() and g.lc() == 1
    assert poly_gcd(a, ExactPoly.from_ints(F, [0])) == a.monic()
    assert poly_gcd(ExactPoly.from_ints(F, [1, 1]), ExactPoly.from_ints(F, [2, 1])).coeffs == (1,)
    with pytest.raises(DomainError):
        poly_gcd(P(1, 1), P(2, 1))  # ZZ
    with pytest.raises(DomainError):
        poly_gcd(a, ExactPoly.from_ints(Fp(103), [1, 1]))  # two different fields


def test_ext_gcd_qq_bezout():
    a = ExactPoly.from_ints(QQ, [1, 0, 1])  # x^2 + 1
    b = ExactPoly.from_ints(QQ, [1, 1])  # x + 1
    g, s, t = ext_gcd_qq(a, b)
    assert g.degree() == 0 and g.lc() == 1
    assert (s * a + t * b - g).is_zero()


def test_mpoly_render_and_ops():
    A = MPoly.var(("A", "B"), "A")
    B = MPoly.var(("A", "B"), "B")
    expr = A * A - B.scale_int(2)
    assert repr(expr) == "A^2 - 2*B"
    one = MPoly.const(("A", "B"), 1)
    assert repr(one) == "1"


def test_symbolic_poly_multiplication():
    A = ZAB.var("A")
    pa = ExactPoly.make(ZAB, [A, ZAB.from_int(1)])  # x + A
    sq = pa * pa
    assert repr(sq.coeff(0)) == "A^2"
    assert sq.coeff(1) == ZAB.mul(ZAB.from_int(2), A)
