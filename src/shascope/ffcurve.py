"""Elliptic curves over F_p (p >= 5): group law, counting, structure,
ell-primary components, supersingularity. Everything at desk scale: point
counting is the naive Legendre sum with a configurable ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import factorize, is_prime, legendre, padic_val, sqrt_mod
from .curves import ShortModel, p_minimize, reduction_report
from .errors import BadReductionError, BudgetError, DomainError, InvariantViolation

DEFAULT_ORDER_CEILING = 10**6

INFINITY = None  # point at infinity sentinel


@dataclass(frozen=True)
class FpCurve:
    p: int
    A: int
    B: int

    def __post_init__(self):
        if self.p < 5:
            raise DomainError("FpCurve requires p >= 5")
        if (4 * self.A**3 + 27 * self.B**2) % self.p == 0:
            raise DomainError(f"singular curve mod {self.p}")

    def on_curve(self, pt) -> bool:
        if pt is INFINITY:
            return True
        x, y = pt
        return (y * y - (x**3 + self.A * x + self.B)) % self.p == 0


def reduce_curve(model: ShortModel, p: int) -> FpCurve:
    """p-minimize then reduce mod p; BadReductionError when singular."""
    if p < 5:
        raise DomainError("reduce_curve requires p >= 5")
    m = p_minimize(model, p)
    if m.delta_prime() % p == 0:
        raise BadReductionError(p, report=reduction_report(model, p))
    return FpCurve(p, m.A % p, m.B % p)


def neg(curve: FpCurve, P):
    if P is INFINITY:
        return INFINITY
    x, y = P
    return (x, (-y) % curve.p)


def add(curve: FpCurve, P, Q):
    """Chord-tangent addition."""
    p = curve.p
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return INFINITY
    if P == Q:
        lam = (3 * x1 * x1 + curve.A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def scalar_mul(curve: FpCurve, k: int, P):
    if k < 0:
        return scalar_mul(curve, -k, neg(curve, P))
    R = INFINITY
    Q = P
    while k:
        if k & 1:
            R = add(curve, R, Q)
        Q = add(curve, Q, Q)
        k >>= 1
    return R


def group_order(curve: FpCurve, *, ceiling: int = DEFAULT_ORDER_CEILING) -> int:
    """1 + sum over x of (1 + legendre(x^3+Ax+B, p))."""
    if curve.p > ceiling:
        raise BudgetError(f"desk-scale ceiling exceeded: p={curve.p} > {ceiling}")
    p, A, B = curve.p, curve.A, curve.B
    n = 1
    for x in range(p):
        n += 1 + legendre(x**3 + A * x + B, p)
    hasse = 2 * isqrt(p) + 2
    if abs(n - (p + 1)) > hasse:
        raise InvariantViolation(f"Hasse bound violated: order {n} at p={p}")
    return n


def enumerate_points(curve: FpCurve, *, ceiling: int = DEFAULT_ORDER_CEILING) -> list:
    """All points, infinity first, affine points sorted by (x, y)."""
    if curve.p > ceiling:
        raise BudgetError(f"desk-scale ceiling exceeded: p={curve.p} > {ceiling}")
    p, A, B = curve.p, curve.A, curve.B
    pts = [INFINITY]
    for x in range(p):
        rhs = (x**3 + A * x + B) % p
        ls = legendre(rhs, p)
        if ls == 0:
            pts.append((x, 0))
        elif ls == 1:
            r = sqrt_mod(rhs, p)
            pts.extend(sorted([(x, r), (x, p - r)]))
    return pts


def point_order(curve: FpCurve, P, *, group_order_hint: int | None = None) -> int:
    """Order of P via the factored group order."""
    if P is INFINITY:
        return 1
    if not curve.on_curve(P):
        raise DomainError(f"{P} not on curve")
    N = group_order_hint if group_order_hint is not None else group_order(curve)
    if scalar_mul(curve, N, P) is not INFINITY:
        raise InvariantViolation("point order does not divide group order")
    n = N
    for q, e in factorize(N):
        while n % q == 0 and scalar_mul(curve, n // q, P) is INFINITY:
            n //= q
    return n


def _sylow_classes(curve: FpCurve, pts: list, ell: int, v: int) -> tuple[dict, int, int]:
    """(points_by_order, e1, e2) for the ell-Sylow subgroup, v = v_ell(#E).

    A point lies in the ell-Sylow subgroup iff at most v multiplications by ell
    take it to O, and the count is its exponent. The subgroup is
    Z/ell^e1 x Z/ell^e2 with e2 the largest exponent and e1 = v - e2.
    """
    by_order: dict[int, list] = {}  # filled in enumeration order, so sorted
    e2 = 0
    for P in pts[1:]:
        R, k = P, 0
        while R is not INFINITY and k < v:
            R = scalar_mul(curve, ell, R)
            k += 1
        if R is INFINITY:
            by_order.setdefault(ell**k, []).append(P)
            e2 = max(e2, k)
    e1 = v - e2
    if 1 + sum(map(len, by_order.values())) != ell**v or e1 > e2:
        raise InvariantViolation(f"ell-power points do not form a group of order {ell}^{v} with e1 <= e2")
    return by_order, e1, e2


@dataclass(frozen=True)
class GroupStructure:
    order: int
    n1: int  # invariant factors n1 | n2, n1*n2 = order (n1 = 1 means cyclic)
    n2: int
    generators: tuple  # one or two points


def group_structure(curve: FpCurve, *, ceiling: int = DEFAULT_ORDER_CEILING) -> GroupStructure:
    """Invariant factors Z/n1 x Z/n2 with generators; n1 | gcd(n2, p-1).

    #E is factored once. The q-part is non-cyclic only if E[q] lies in E(F_p),
    which the Weil pairing allows only when q | p - 1, so the q-Sylow pass
    runs just for primes q with q^2 | #E and q | p - 1.
    """
    pts = enumerate_points(curve, ceiling=ceiling)
    N = len(pts)
    for P in pts[1:]:
        if scalar_mul(curve, N, P) is not INFINITY:
            raise InvariantViolation("point order does not divide group order")
    fac = factorize(N)
    n1 = 1
    for q, v in fac:
        if v > 1 and (curve.p - 1) % q == 0:
            n1 *= q ** _sylow_classes(curve, pts, q, v)[1]
    n2 = N // n1
    if n1 * n2 != N:
        raise InvariantViolation("invariant factors do not multiply to the order")
    if n1 > 1 and (n2 % n1 != 0 or (curve.p - 1) % n1 != 0):
        raise InvariantViolation("Weil constraint n1 | gcd(n2, p-1) violated")
    # first generator: the first point of exact order n2, as a max-order scan finds
    for gen2 in pts[1:]:
        if scalar_mul(curve, n2, gen2) is INFINITY and all(
            scalar_mul(curve, n2 // q, gen2) is not INFINITY for q in fac.primes()
        ):
            break
    else:
        raise InvariantViolation(f"no point of order {n2}")
    if n1 == 1:
        return GroupStructure(N, 1, n2, (gen2,))
    # second generator: smallest point whose class generates G/<gen2>
    cyclic = {INFINITY}
    Q = gen2
    while Q is not INFINITY:
        cyclic.add(Q)
        Q = add(curve, Q, gen2)
    for P in pts[1:]:
        if P in cyclic:
            continue
        # order of P's image in G/<gen2>
        j = 1
        R = P
        while R not in cyclic:
            j += 1
            R = add(curve, R, P)
        if j == n1 and point_order(curve, P, group_order_hint=N) % n1 == 0:
            return GroupStructure(N, n1, n2, (gen2, P))
    raise InvariantViolation("no second generator found")


@dataclass(frozen=True)
class EllPrimary:
    ell: int
    order: int  # size of the ell-Sylow component
    e1: int  # component is Z/ell^e1 x Z/ell^e2 (e1 <= e2)
    e2: int
    cyclic: bool
    points_by_order: dict  # ell^k -> sorted list of points of exact order ell^k


def ell_primary(curve: FpCurve, ell: int, *, ceiling: int = DEFAULT_ORDER_CEILING) -> EllPrimary:
    """Structure of the ell-Sylow subgroup; cyclic whenever p != 1 mod ell."""
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")
    pts = enumerate_points(curve, ceiling=ceiling)
    v = padic_val(len(pts), ell)
    by_order, e1, e2 = _sylow_classes(curve, pts, ell, v)
    size = ell**v
    cyclic = e1 == 0
    if curve.p % ell != 1 and not cyclic:
        raise InvariantViolation(f"ell-component not cyclic despite p != 1 mod {ell}")
    return EllPrimary(ell, size, e1, e2, cyclic, by_order)


def is_supersingular(curve: FpCurve, *, ceiling: int = DEFAULT_ORDER_CEILING) -> bool:
    """True iff #E(F_p) = p + 1 (a_p = 0, valid for p >= 5)."""
    return group_order(curve, ceiling=ceiling) == curve.p + 1
