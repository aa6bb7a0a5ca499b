import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest
import sympy
from sympy.ntheory.elliptic_curve import EllipticCurve

import shascope
from shascope import ffcurve, torsionq
from shascope.curves import LongModel, ShortModel, minimize_short, to_short
from shascope.errors import InvariantViolation
from shascope.ffcurve import INFINITY, point_order, reduce_curve
from shascope.torsionq import rational_torsion

EX3_SHORT = to_short(LongModel(1, -1, 0, -332311, -73733731))


def _torsion_order(A: int, B: int, P) -> int | None:
    """Order of the rational point P under sympy's group law over Q if P is
    torsion, else None; an oracle that shares no code with the package."""
    order = EllipticCurve(A, B)(*P).order()
    return None if order is sympy.oo else int(order)


def brute_torsion_points(A, B, height_bound=200):
    """Integer points of small height whose order under sympy's group law is
    finite; independent sweep oracle."""
    pts = []
    for x in range(-height_bound, height_bound + 1):
        y2 = x**3 + A * x + B
        if y2 < 0:
            continue
        y = round(y2**0.5)
        for yy in (y - 1, y, y + 1):
            if yy >= 0 and yy * yy == y2:
                o = _torsion_order(A, B, (x, yy))
                if o is not None:
                    pts.append((x, yy))
                if yy:
                    o = _torsion_order(A, B, (x, -yy))
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
    P = EllipticCurve(4, 0)(2, 4)
    assert (P + P).x == 0 and (P + P).y == 0


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


def torsion_injection_check(model, p, m):
    """Injectivity (with order preservation) of E[m](Q) -> E~(F_p) for good p >= 5."""
    minimized, _ = minimize_short(model)
    curve = reduce_curve(minimized, p)  # raises BadReductionError on bad p
    images = {INFINITY}
    for x, y in rational_torsion(model).points:
        o = _torsion_order(minimized.A, minimized.B, (x, y))
        if o is None or m % o != 0:
            continue
        img = (x % p, y % p)
        if img in images or point_order(curve, img) != o:
            return False
        images.add(img)
    return True


def test_injection_into_good_reduction():
    assert torsion_injection_check(ShortModel(0, 1), 5, 6)
    assert torsion_injection_check(ShortModel(4, 0), 5, 4)


def test_closure_check_fires_on_a_wrong_group_law(monkeypatch):
    def shifted_add(curve, P, Q):  # the true sum with x moved by 1
        R = ffcurve.add(curve, P, Q)
        return R if R is INFINITY else ((R[0] + 1) % curve.p, R[1])

    monkeypatch.setattr(torsionq, "add", shifted_add)
    with pytest.raises(InvariantViolation, match="not closed under addition"):
        rational_torsion(ShortModel(0, 1))


def _integer_roots_monic_cubic(A: int, c: int) -> list[int]:
    """Integer roots of f = X^3 + A*X + c by exact bisection in [-R, R],
    R = 1 + max(|A|, |c|). For A < 0 the turning points +-sqrt(-A/3) lie in
    [s, s+1), s = isqrt(-A//3), so f is monotone on the integers of each of
    [-R, -s-1], [-s, s] and [s+1, R]; for A >= 0 f is increasing."""

    def f(x: int) -> int:
        return x**3 + A * x + c

    R = 1 + max(abs(A), abs(c))
    if A < 0:
        s = isqrt(-A // 3)
        pieces = [(-R, -s - 1), (-s, s), (s + 1, R)]
    else:
        pieces = [(-R, R)]
    roots = []
    for lo, hi in pieces:
        sign = 1 if f(hi) >= f(lo) else -1
        while lo < hi:  # least x in [lo, hi] with sign * f(x) >= 0
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if f(lo) == 0:
            roots.append(lo)
    return roots


def nagell_lutz_points(model: ShortModel) -> tuple:
    """Affine torsion points of the minimized model by the Nagell-Lutz sieve,
    an oracle independent of reduction mod p: (x, 0) for the integer roots of
    the cubic, and (x, +-y) for y > 0 with y^2 | delta' and x an integer root
    of X^3 + AX + B - y^2, kept iff sympy's group law gives it a finite order."""
    m, _ = minimize_short(model)
    A, B = m.A, m.B
    pts = {(x, 0) for x in _integer_roots_monic_cubic(A, B)}
    half = prod(p ** (e // 2) for p, e in sympy.factorint(m.delta_prime()).items())
    for y in sympy.divisors(half):
        for x in _integer_roots_monic_cubic(A, B - y * y):
            if _torsion_order(A, B, (x, y)) is not None:
                pts |= {(x, y), (x, -y)}
    return tuple(sorted(pts))


def tate_normal_form(b: Fraction, c: Fraction) -> ShortModel:
    """y^2 + (1 - c)xy - by = x^3 - bx^2, on which (0, 0) is a point of
    infinite or finite order, as an integral short model."""
    a1, a2, a3 = 1 - c, -b, -b
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3, a3 * a3
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4, -54 * c6
    u = lcm(A.denominator, B.denominator)
    return ShortModel(int(A * u**4), int(B * u**6))


def mazur_family_curves() -> list[ShortModel]:
    """Kubert's Tate-normal-form families at a few parameters, with small
    curves for Z/2Z, Z/3Z and Z/2Z x Z/2Z: every one of Mazur's 15 groups."""
    out = [ShortModel(1, 1), ShortModel(1, 0), ShortModel(0, 16), ShortModel(-1, 0)]
    for t in (Fraction(5, 2), Fraction(-2)):
        c8 = (2 * t - 1) * (t - 1) / t
        d10 = t - (t - 1) ** 2
        c10 = (2 * t**3 - 3 * t * t + t) / d10
        c12 = (3 * t * t - 3 * t + 1) * (t - 2 * t * t) / (t - 1) ** 3
        c26 = (10 - 2 * t) / (t * t - 9)
        families = [
            (t, 0),  # Z/4Z
            (t, t),  # Z/5Z
            (t + t * t, t),  # Z/6Z
            (t**3 - t * t, t * t - t),  # Z/7Z
            (c8 * t, c8),  # Z/8Z, and Z/2Z x Z/8Z at t = -2
            (t * t * (t - 1) * (t * t - t + 1), t * t * (t - 1)),  # Z/9Z
            (c10 * t * t / d10, c10),  # Z/10Z
            (c12 * (2 * t - 2 * t * t - 1) / (t - 1), c12),  # Z/12Z
            (t * t - Fraction(1, 16), 0),  # Z/2Z x Z/4Z
            (c26 + c26 * c26, c26),  # Z/2Z x Z/6Z
        ]
        out += [tate_normal_form(Fraction(b), Fraction(c)) for b, c in families]
    return out


def test_mazur_families_cover_the_15_groups():
    structures = {rational_torsion(m).structure for m in mazur_family_curves()}
    cyclic = {f"Z/{n}Z" for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)}
    assert structures == {"trivial"} | cyclic | {f"Z/2Z x Z/{n}Z" for n in (2, 4, 6, 8)}


def test_rational_torsion_matches_the_nagell_lutz_sieve():
    rng = random.Random(5)
    models = mazur_family_curves()
    while len(models) < 200:
        m = ShortModel(rng.randint(-(2**12), 2**12), rng.randint(-(2**12), 2**12))
        if m.delta_prime():
            models.append(m)
    for m in models:
        assert rational_torsion(m).points == nagell_lutz_points(m), m


def _cli_torsion(A: int, B: int) -> subprocess.CompletedProcess:
    """sha-scope torsion in a fresh process, killed after 10 s."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shascope.__file__)))
    argv = [sys.executable, "-m", "shascope.cli", "torsion", "--curve", f"{A},{B}"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=10, env=env)


def test_large_random_curves_have_trivial_torsion_within_the_timeout():
    # delta' of these curves defeats the factoring budget; nothing factors it now
    rng = random.Random(3)
    for _ in range(12):
        A, B = rng.randint(-(10**24), 10**24), rng.randint(-(10**36), 10**36)
        run = _cli_torsion(A, B)
        assert (run.returncode, run.stdout) == (0, '{"order":1,"points":[],"structure":"trivial"}\n'), (A, B)


def test_large_five_torsion_curve_within_the_timeout():
    A = -1088382440013156289861436532473788376816667
    B = 532349188256970958899849949447401312703223804875246209871211574
    run = _cli_torsion(A, B)
    assert run.returncode == 0
    t = rational_torsion(ShortModel(A, B))
    assert t.structure == "Z/5Z" and len(t.points) == 4
    assert all(_torsion_order(A, B, P) == 5 for P in t.points)
    assert '"structure":"Z/5Z"' in run.stdout


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
