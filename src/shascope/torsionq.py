"""Rational torsion of y^2 = x^3 + Ax + B via the integral-point sieve:
torsion points have integer coordinates with y = 0 or y^2 | delta', and the
group order is at most 16 with one of the 15 admissible structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import Factorization, divisors, factorize
from .curves import ShortModel, minimize_short
from .errors import DomainError, InvariantViolation
from .ffcurve import INFINITY, point_order as fp_point_order, reduce_curve

MAZUR_ORDER_BOUND = 16


@dataclass(frozen=True)
class TorsionGroup:
    structure: str  # "trivial" | "Z/nZ" | "Z/2Z x Z/2nZ"
    order: int
    points: tuple  # affine (x, y) integer pairs, sorted; O omitted


def _add_q(A: int, B: int, P, Q):
    """Exact group law over Q; points are (Fraction, Fraction) or INFINITY."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and y1 + y2 == 0:
        return INFINITY
    if P == Q:
        lam = (3 * x1 * x1 + A) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def _torsion_order(A: int, B: int, P) -> int | None:
    """Order of P if it is torsion of order <= 16, else None."""
    R = P
    for n in range(2, MAZUR_ORDER_BOUND + 2):
        R = _add_q(A, B, R, P)
        if R is INFINITY:
            return n
        # torsion points stay integral; a non-integral multiple ends the search
        if R[0].denominator != 1 or R[1].denominator != 1:
            return None
    return None


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


def rational_torsion(model: ShortModel, *, effort: int = 50) -> TorsionGroup:
    """Torsion subgroup of the minimized model.

    Candidates: (x, 0) with x an integer root of the cubic, and integer (x, y)
    with y > 0, y^2 | delta'. Candidates are kept iff some multiple <= 16 hits
    O; the result is checked to be closed under the group law.
    """
    m, _ = minimize_short(model)
    A, B = m.A, m.B
    dp = m.delta_prime()
    pts: dict[tuple[int, int], int] = {}

    for x in _integer_roots_monic_cubic(A, B):
        pts[(x, 0)] = 2

    fac = factorize(dp, effort=effort)
    y_candidates = divisors(_half_square_divisor(fac))
    for y in y_candidates:
        for x in _integer_roots_monic_cubic(A, B - y * y):
            P = (Fraction(x), Fraction(y))
            order = _torsion_order(A, B, P)
            if order is not None:
                pts[(x, y)] = order
                pts[(x, -y)] = order

    order = len(pts) + 1
    if order > MAZUR_ORDER_BOUND:
        raise InvariantViolation(f"torsion order {order} exceeds the bound 16")

    # closure check
    members = {INFINITY} | {(Fraction(x), Fraction(y)) for (x, y) in pts}
    for P in members:
        for Q in members:
            if _add_q(A, B, P, Q) not in members:
                raise InvariantViolation("torsion candidate set not closed under addition")

    two_torsion = sum(1 for (_, y) in pts if y == 0)
    if two_torsion == 3:
        structure = f"Z/2Z x Z/{order // 2}Z"
    elif order == 1:
        structure = "trivial"
    else:
        # cyclic: verify some point attains the full order
        if not any(o == order for o in pts.values()):
            raise InvariantViolation("no generator of the full torsion order found")
        structure = f"Z/{order}Z"
    return TorsionGroup(structure, order, tuple(sorted(pts.keys())))


def _half_square_divisor(fac):
    """Factorization of the largest y with y^2 | value (exponents halved)."""
    return Factorization(1, tuple((p, e // 2) for p, e in fac.factors if e >= 2))


def torsion_injection_check(model: ShortModel, p: int, m: int) -> bool:
    """Injectivity (with order preservation) of E[m](Q) -> E~(F_p) for good p >= 5."""
    if p < 5:
        raise DomainError("requires p >= 5")
    if gcd(m, p) != 1:
        raise DomainError("m must be coprime to p")
    minimized, _ = minimize_short(model)
    curve = reduce_curve(minimized, p)  # raises BadReductionError on bad p
    tor = rational_torsion(model)
    images = {INFINITY}
    for (x, y) in tor.points:
        P = (Fraction(x), Fraction(y))
        o = _torsion_order(minimized.A, minimized.B, P) if y != 0 else 2
        if o is None or m % o != 0:
            continue
        img = (x % p, y % p)
        if img in images:
            return False
        if fp_point_order(curve, img) != o:
            return False
        images.add(img)
    return True
