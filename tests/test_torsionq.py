import random
from fractions import Fraction

import pytest

from shascope.curves import LongModel, ShortModel, to_short
from shascope.ffcurve import INFINITY
from shascope.torsionq import (
    TorsionGroup,
    _add_q,
    _integer_roots_monic_cubic,
    _torsion_order,
    rational_torsion,
    torsion_injection_check,
)

EX3_SHORT = to_short(LongModel(1, -1, 0, -332311, -73733731))


def brute_torsion_points(A, B, height_bound=200):
    """Integer points of small height whose order under the exact group law
    is finite and <= 16; independent sweep oracle."""
    pts = []
    for x in range(-height_bound, height_bound + 1):
        y2 = x**3 + A * x + B
        if y2 < 0:
            continue
        y = round(y2**0.5)
        for yy in (y - 1, y, y + 1):
            if yy >= 0 and yy * yy == y2:
                o = _torsion_order(A, B, (Fraction(x), Fraction(yy)))
                if o is not None:
                    pts.append((x, yy))
                if yy:
                    o = _torsion_order(A, B, (Fraction(x), Fraction(-yy)))
                    if o is not None:
                        pts.append((x, -yy))
                break
    return sorted(set(pts))


def test_six_torsion_curve():
    t = rational_torsion(ShortModel(0, 1))
    assert t.structure == "Z/6Z"
    assert t.order == 6
    assert set(t.points) == set(brute_torsion_points(0, 1))


def test_four_torsion_curve():
    # y^2 = x^3 + 4x has (2, 4) of order 4: [2](2,4) = (0,0)
    t = rational_torsion(ShortModel(4, 0))
    assert t.structure == "Z/4Z"
    assert t.order == 4
    assert (2, 4) in t.points and (0, 0) in t.points
    two = _add_q(4, 0, (Fraction(2), Fraction(4)), (Fraction(2), Fraction(4)))
    assert two == (Fraction(0), Fraction(0))


def test_trivial_torsion_example3():
    t = rational_torsion(EX3_SHORT)
    assert t.structure == "trivial"
    assert t.order == 1 and t.points == ()


def test_full_two_torsion():
    # y^2 = x(x-1)(x+1) = x^3 - x
    t = rational_torsion(ShortModel(-1, 0))
    assert t.order == 4
    assert t.structure == "Z/2Z x Z/2Z"
    assert set(t.points) == {(-1, 0), (0, 0), (1, 0)}


def test_gcd_reduction_bound():
    # torsion order divides #E(F_p) for every good prime
    from shascope.ffcurve import group_order, reduce_curve
    from math import gcd

    m = ShortModel(0, 1)
    t = rational_torsion(m)
    g = 0
    for p in (5, 11, 13, 17, 19, 23):
        if m.delta_prime() % p == 0:
            continue
        g = gcd(g, group_order(reduce_curve(m, p)))
    assert g % t.order == 0


def test_injection_into_good_reduction():
    assert torsion_injection_check(ShortModel(0, 1), 5, 6)
    assert torsion_injection_check(ShortModel(4, 0), 5, 4)


def test_exact_group_law_addition():
    # doubling (2,3) on y^2 = x^3 + 1: lambda = 12/6 = 2, x3 = 4-4 = 0, y3 = -(3+2(0-2)) = 1
    P = (Fraction(2), Fraction(3))
    assert _add_q(0, 1, P, P) == (Fraction(0), Fraction(1))
    assert _add_q(0, 1, P, INFINITY) == P


def test_integer_roots_of_split_cubics():
    # (X - a)(X - b)(X + a + b) = X^3 - (a^2 + ab + b^2) X + ab(a + b)
    rng = random.Random(7)
    pairs = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    pairs += [(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)) for _ in range(300)]
    for a, b in pairs:
        A, c = -(a * a + a * b + b * b), a * b * (a + b)
        assert _integer_roots_monic_cubic(A, c) == sorted({a, b, -a - b}), (a, b)


def test_integer_roots_against_a_sweep():
    # every root lies in [-R, R], R = 1 + max(|A|, |c|); sweep that range
    for A in range(-30, 31):
        for c in range(-30, 31):
            R = 1 + max(abs(A), abs(c))
            want = [x for x in range(-R, R + 1) if x**3 + A * x + c == 0]
            assert _integer_roots_monic_cubic(A, c) == want, (A, c)
