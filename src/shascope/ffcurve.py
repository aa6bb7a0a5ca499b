"""Elliptic curves over F_p (p >= 5): group law, counting, structure and
ell-primary components.

#E(F_p) is counted exactly from one table of squares mod p (p prime by
is_prime, p <= ORDER_CEILING), once per FpCurve. The group structure and
the ell-primary parts are then proven from that count with a few lazily
enumerated points: a basis per Sylow subgroup, no pass over all the points.
The squares table, #E and each Sylow basis are kept on the FpCurve, so
group_structure and ell_primary on one curve walk each Sylow subgroup once.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt
from typing import NamedTuple

from .arith import factorize, is_prime, padic_val, sqrt_mod
from .curves import ShortModel, p_minimize
from .errors import BadReductionError, BudgetError, DomainError, InvariantViolation, SingularCubicError, refuse_assignment

ORDER_CEILING = 10**6  # largest p whose O(p) squares table is built

INFINITY = None  # point at infinity sentinel


def check_order_ceiling(p: int) -> None:
    """BudgetError when p is past ORDER_CEILING."""
    if p > ORDER_CEILING:
        raise BudgetError(f"desk-scale ceiling exceeded: p={p} > {ORDER_CEILING}")


class FpCurve:
    """y^2 = x^3 + Ax + B over F_p. The squares table, #E(F_p) and the
    q-Sylow bases are computed on first use and kept on the instance, so a
    caller that reduces a curve once counts its points once and walks each
    Sylow subgroup once. Immutable; equal, and hashing alike, when p, A and B
    are, whatever each has cached."""

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, p: int, A: int, B: int):
        if p < 5:
            raise DomainError("FpCurve requires p >= 5")
        if (4 * A**3 + 27 * B**2) % p == 0:
            raise DomainError(f"singular curve mod {p}")
        self.__dict__.update(p=p, A=A, B=B)  # cached_property writes here too

    def __eq__(self, other):
        if type(other) is not FpCurve:
            return NotImplemented
        return (self.p, self.A, self.B) == (other.p, other.A, other.B)

    def __hash__(self):
        return hash((self.p, self.A, self.B))

    def __repr__(self) -> str:
        return f"FpCurve(p={self.p!r}, A={self.A!r}, B={self.B!r})"

    def on_curve(self, pt) -> bool:
        if pt is INFINITY:
            return True
        x, y = pt
        return (y * y - (x**3 + self.A * x + self.B)) % self.p == 0

    @cached_property
    def _squares(self) -> bytearray:
        """t[r] = #{y : y^2 = r mod p}: 1 at 0, 2 at the nonzero squares, else 0.

        Every count and every walk over the points reads this table, so the
        order ceiling and then the primality of p are checked here once.
        """
        p = self.p
        check_order_ceiling(p)
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        t = bytearray(p)
        t[0] = 1
        for y in range(1, (p + 1) // 2):
            t[y * y % p] = 2
        return t

    @cached_property
    def _order(self) -> int:
        """#E(F_p) from the squares table, x and -x together: f(+-x) = b +- g
        with b = B mod p and g = x(x^2 + A) mod p, one reduction per pair.

        The table is rotated, T[k] = t[(b + k) mod p], and reflected,
        R[k] = t[(b - k) mod p] (R[0] = T[0], R[k] = T[p - k]), so the pair
        x, -x adds T[g] + R[g].
        """
        p, A, t = self.p, self.A, self._squares
        b = self.B % p
        T = t[b:] + t[:b]
        R = T[:1] + T[:0:-1]
        n = 1 + t[b] + sum([T[g := x * (x * x + A) % p] + R[g] for x in range(1, (p + 1) // 2)])
        if abs(n - (p + 1)) > 2 * isqrt(p) + 2:
            raise InvariantViolation(f"Hasse bound violated: order {n} at p={p}")
        return n

    @cached_property
    def _sylow_bases(self) -> dict:
        """q -> the q-Sylow basis, filled by _sylow_basis."""
        return {}


def reduce_curve(model: ShortModel, p: int) -> FpCurve:
    """p-minimize then reduce mod p >= 5. If p divides delta', raise DomainError
    for a composite p, else SingularCubicError at delta' = 0, else BadReductionError."""
    if p < 5:
        raise DomainError("reduce_curve requires p >= 5")
    m = p_minimize(model, p)
    if m.delta_prime() % p == 0:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if m.delta_prime() == 0:
            raise SingularCubicError(-48 * m.A)
        raise BadReductionError(p)
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
    while k:
        if k & 1:
            R = add(curve, R, P)
        k >>= 1
        if k:
            P = add(curve, P, P)
    return R


def group_order(curve: FpCurve) -> int:
    """#E(F_p) = 1 + sum over x of #{y : y^2 = x^3 + Ax + B}, read off one
    table of squares mod p and counted once per FpCurve; Hasse-checked."""
    return curve._order


def _affine_points(curve: FpCurve):
    """The affine points sorted by (x, y), produced on demand from the squares table."""
    p, A, B, t = curve.p, curve.A, curve.B, curve._squares
    for x in range(p):
        r = (x * (x * x + A) + B) % p
        if t[r] == 1:
            yield (x, 0)
        elif t[r]:
            y = sqrt_mod(r, p)
            yield (x, min(y, p - y))
            yield (x, max(y, p - y))


def enumerate_points(curve: FpCurve) -> list:
    """All points, infinity first, affine points sorted by (x, y)."""
    return [INFINITY, *_affine_points(curve)]


def point_order(curve: FpCurve, P) -> int:
    """Order of P: the product of q^k over q^v ∥ #E, where q^k is the order
    of (#E / q^v)·P."""
    if P is INFINITY:
        return 1
    if not curve.on_curve(P):
        raise DomainError(f"{P} not on curve")
    N = group_order(curve)
    n = 1
    for q, v in factorize(N).factors:
        n *= q ** _exponent(curve, scalar_mul(curve, N // q**v, P), q, v)[0]
    return n


def _exponent(curve: FpCurve, R, q: int, v: int) -> tuple:
    """(k, q^(k-1)·R) for R of order q^k with k <= v."""
    k, low = 0, INFINITY
    while R is not INFINITY:
        if k == v:
            raise InvariantViolation("point order does not divide group order")
        low, R = R, scalar_mul(curve, q, R)
        k += 1
    return k, low


def _multiples(curve: FpCurve, R, n: int, start=INFINITY):
    """start + j·R for 0 <= j < n, in order, with n - 1 additions."""
    for j in range(n):
        if j:
            start = add(curve, start, R)
        yield start


def _off_line(curve: FpCurve, R, q: int, v: int, R1, k1: int, line: dict) -> tuple:
    """(R2, k2) with R2 = R - c·R1 and <R2> ∩ <R1> = {O}, for R of order at
    most q^k1 = ord(R1) and line = {j·low: j for 0 <= j < q}, low = q^(k1-1)·R1.

    While R's order-q multiple lies on line, say at j·q^(k1-1)·R1, subtracting
    j·q^(k1-k)·R1 lowers the order q^k of R. So q^k2 is the order of R's image
    in G/<R1> (one Pohlig-Hellman digit per step).
    """
    k, low = _exponent(curve, R, q, v)
    while k and low in line:
        R = add(curve, R, scalar_mul(curve, -line[low] * q ** (k1 - k), R1))
        k, low = _exponent(curve, R, q, v)
    return R, k


def _sylow_basis(curve: FpCurve, q: int) -> tuple:
    """((R1, k1), (R2, k2)) with k1 >= k2, k1 + k2 = v, spanning the q-Sylow
    subgroup S = (N/q^v)·E(F_p), which has q^v points by the count N = #E
    and v = v_q(N). Walked once per curve and q, then read from the curve.

    The points are walked lazily and mapped into S. A point of order q^v
    proves S cyclic (R2 = O). Otherwise R1 is the longest element so far and
    each new element is reduced modulo <R1> (_off_line) until the orders
    add up to v. Then <R1> ∩ <R2> = {O}, so |<R1, R2>| = q^v = |S| and
    S = Z/q^k2 x Z/q^k1, proven from the exact count. At v = 0, S = {O}
    and no point is walked.
    """
    bases = curve._sylow_bases
    if q in bases:
        return bases[q]
    N = group_order(curve)
    v = padic_val(N, q)
    if v == 0:
        return (INFINITY, 0), (INFINITY, 0)
    m = N // q**v
    top = None  # (R1, k1, line of R1): the element of largest order so far
    for P in _affine_points(curve):
        R = scalar_mul(curve, m, P)
        k, low = _exponent(curve, R, q, v)
        if k == v:
            basis = (R, v), (INFINITY, 0)
            break
        if k == 0:
            continue
        if top is None or k > top[1]:  # R is the new longest; reduce the old one instead
            line = {T: j for j, T in enumerate(_multiples(curve, low, q))}
            top, R = (R, k, line), (top[0] if top else INFINITY)
        R2, k2 = _off_line(curve, R, q, v, *top)
        if top[1] + k2 > v:
            raise InvariantViolation(f"{q}-Sylow subgroup exceeds {q}^{v} points")
        if top[1] + k2 == v:
            basis = top[:2], (R2, k2)
            break
    else:
        raise InvariantViolation(f"no basis of the {q}-Sylow subgroup of order {q}^{v}")
    bases[q] = basis
    return basis


class GroupStructure(NamedTuple):
    order: int
    n1: int  # invariant factors n1 | n2, n1*n2 = order (n1 = 1 means cyclic)
    n2: int
    generators: tuple  # (gen2,) of order n2 when cyclic, else (gen2, gen1): a basis


def group_structure(curve: FpCurve) -> GroupStructure:
    """Invariant factors Z/n1 x Z/n2 with a basis; n1 | gcd(n2, p-1).

    Certificate: N = #E(F_p) is the exact count, factored once. For q^v || N
    the q-Sylow subgroup has a basis (R1, R2) of orders q^k1 >= q^k2 with
    k1 + k2 = v (_sylow_basis). gen2 is the sum of the R1 and gen1 the sum of
    the R2 over all q, so ord(gen1) = n1 = prod q^k2 divides
    ord(gen2) = n2 = N/n1, and <gen1> + <gen2> is the direct sum of the
    Sylow subgroups, which is all of E(F_p). The Weil pairing puts E[n1] in
    E(F_p) only if n1 | p - 1; that is checked, not assumed.
    """
    N = group_order(curve)
    gen2 = gen1 = INFINITY
    n1 = 1
    for q, _ in factorize(N).factors:
        (R1, _), (R2, k2) = _sylow_basis(curve, q)
        gen2, gen1 = add(curve, gen2, R1), add(curve, gen1, R2)
        n1 *= q**k2
    if (curve.p - 1) % n1:
        raise InvariantViolation(f"Weil constraint n1 | p-1 violated: n1 = {n1}")
    return GroupStructure(N, n1, N // n1, (gen2,) if n1 == 1 else (gen2, gen1))


class EllPrimary(NamedTuple):
    ell: int
    order: int  # size of the ell-Sylow component
    e1: int  # component is Z/ell^e1 x Z/ell^e2 (e1 <= e2)
    e2: int
    cyclic: bool
    points_by_order: dict  # ell^k -> sorted list of points of exact order ell^k


def ell_primary(curve: FpCurve, ell: int) -> EllPrimary:
    """Structure and points of the ell-Sylow subgroup; cyclic whenever p != 1 mod ell.

    The subgroup is built from its basis (_sylow_basis): a·R1 + b·R2 has order
    max(ord(a·R1), ord(b·R2)), since <R1> ∩ <R2> = {O}. Exactly ell^v distinct
    points must come out, v = v_ell(#E).
    """
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")
    N = group_order(curve)
    v = padic_val(N, ell)
    (R1, e2), (R2, e1) = _sylow_basis(curve, ell)
    n1, n2 = ell**e1, ell**e2
    by_order: dict[int, list] = {}
    for b, S in enumerate(_multiples(curve, R2, n1)):
        for a, Q in enumerate(_multiples(curve, R1, n2, S)):
            if Q is not INFINITY:
                o = max(n2 // gcd(a, n2), n1 // gcd(b, n1))
                by_order.setdefault(o, []).append(Q)
    points = {P for pts in by_order.values() for P in pts}
    if 1 + len(points) != ell**v:
        raise InvariantViolation(f"ell-Sylow basis spans {1 + len(points)} points, not {ell}^{v}")
    cyclic = e1 == 0
    if curve.p % ell != 1 and not cyclic:
        raise InvariantViolation(f"ell-component not cyclic despite p != 1 mod {ell}")
    by_order = {o: sorted(by_order[o]) for o in sorted(by_order)}
    return EllPrimary(ell, ell**v, e1, e2, cyclic, by_order)
