"""Rational torsion of y^2 = x^3 + Ax + B by reduction mod p and Hensel lifting.

E(Q)_tors injects into E(F_p) at good p >= 3 (Silverman, AEC VII.3.1), so
its order divides n = gcd #E(F_p) over good p; Mazur bounds it by 16. At a
good p0 not dividing n, a torsion point P of order k reduces to a point R of
order k, and psi (k = 2) or f_k (k >= 3) is squarefree mod p0, so x(P) is
the p0-adic root lifting x(R). By Nagell-Lutz P is integral with y = 0 or
y^2 | delta', so |x(P)| <= 1 + max(|A|, |B| + |delta'|) (Cauchy), and the
lift mod p0^e above twice that bound, as a symmetric residue, is x(P).

Conversely, an integral point P = (x, y) of E with h(x) = 0, h = psi (k = 2)
or f_k, has [k]P = O, and P or -P reduces to R; by injectivity P has order k.
So the group law is needed only on the reductions: the points found are
closed under addition over Q iff their reductions are closed in E(F_p0).
Nothing here factors delta' or adds points over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt

from .arith import is_prime
from .curves import ShortModel, minimize_short
from .divpoly import DivisionTable
from .errors import InvariantViolation
from .ffcurve import INFINITY, FpCurve, add, enumerate_points, group_order, point_order as fp_point_order
from .poly import ZZ

MAZUR_ORDER_BOUND = 16
GOOD_PRIMES = 20  # most good primes whose #E(F_p) enter the gcd


@dataclass(frozen=True)
class TorsionGroup:
    structure: str  # "trivial" | "Z/nZ" | "Z/2Z x Z/2nZ"
    order: int
    points: tuple  # affine (x, y) integer pairs, sorted; O omitted


def rational_torsion(model: ShortModel) -> TorsionGroup:
    """Torsion subgroup of the minimized model: the integral points P over the
    lifts of x(R), R in E(F_p0) of order k | n with k <= 16, kept iff
    h(x(P)) = 0, which gives P the order k; checked for the order bound,
    closure (on the reductions mod p0) and a cyclic generator. n runs over
    GOOD_PRIMES good p >= 5, or stops at n = 1.
    """
    m, _ = minimize_short(model)
    A, B = m.A, m.B
    dp = m.delta_prime()
    n, good = 0, []
    for p in filter(is_prime, count(5, 2)):
        if dp % p:
            good.append(FpCurve(p, A % p, B % p))
            n = gcd(n, group_order(good[-1]))
            if n == 1 or len(good) == GOOD_PRIMES:
                break
    curve = next(c for c in good if n % c.p)  # E(F_p0)
    pts: dict[tuple[int, int], int] = {}

    if n > 1:
        orders = {R[0]: fp_point_order(curve, R) for R in enumerate_points(curve)[1:]}
        table = DivisionTable(ZZ, A, B)
        bound = 2 * (1 + max(abs(A), abs(B) + abs(dp)))  # twice the bound on |x(P)|
        for x, k in orders.items():
            if n % k or k > MAZUR_ORDER_BOUND:
                continue
            h = table.psi if k == 2 else table.f(k)
            dh, q = h.derivative(), curve.p
            while q <= bound:  # Newton's iteration doubles the p-adic precision
                q *= q
                x = (x - h.evaluate(x) * pow(dh.evaluate(x), -1, q)) % q
            x -= q if 2 * x > q else 0
            y2 = x**3 + A * x + B
            y = isqrt(max(y2, 0))
            if h.evaluate(x) == 0 and y * y == y2:  # [k]P = O, so P has order k
                pts[(x, y)] = pts[(x, -y)] = k

    order = len(pts) + 1
    if order > MAZUR_ORDER_BOUND:
        raise InvariantViolation(f"torsion order {order} exceeds the bound 16")

    # closure check, mod p0: reduction is injective on torsion
    members = {INFINITY} | {(x % curve.p, y % curve.p) for (x, y) in pts}
    for P in members:
        for Q in members:
            if add(curve, P, Q) not in members:
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
