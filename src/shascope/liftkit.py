"""Desk-scale lifting plans: certify that the ell-part generator of a good
reduction lifts to a characteristic-zero point with the same y.

A plan fixes y to an integer lift of the reduced y-coordinate and asks for a
p-adic root of the cubic X^3 + AX + B - y^2 near the reduced x-coordinate.
The naive Hensel test (simple root mod p) can fail even at good primes —
the cubic in X alone may acquire a double root mod p at points where the
tangent is vertical — so the certificate refines digit by digit until the
strong Hensel inequality v_p(h(x)) > 2*v_p(h'(x)) is met.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import is_prime, padic_val
from .curves import ShortModel
from .errors import BudgetError, DomainError, InvariantViolation
from .ffcurve import check_order_ceiling, ell_primary, group_order, point_order, reduce_curve
from .poly import ZZ, ExactPoly

MAX_HENSEL_DEPTH = 40


class HenselCertificate(NamedTuple):
    x_cert: int  # residue mod p^depth
    depth: int
    val_h: int | None  # v_p(h(x_cert)); None means h(x_cert) = 0 exactly
    val_dh: int | None  # v_p(h'(x_cert)); None means h'(x_cert) = 0 exactly
    simple_mod_p: bool  # whether the naive depth-1 test already sufficed


class LiftPlan(NamedTuple):
    p: int
    ell: int
    n: int  # ell-valuation of the reduced group order
    m: int  # prime-to-ell part
    generator: tuple[int, int] | None  # None encodes the trivial plan (O)
    y_lift: int | None  # least non-negative residue of the generator's y
    y_squared: Fraction | None
    cubic: tuple[Fraction, ...] | None  # X^3 + AX + B - y^2, coefficients constant first
    target_x: int | None  # residue mod p of the sought root
    bezout: tuple[int, int]  # (a, b) with m*a + ell*b = 1
    hensel: HenselCertificate | None


def _hensel_certificate(cubic: ExactPoly, p: int, target_x: int) -> HenselCertificate:
    """Strong-Hensel certificate for a p-adic root of the cubic (over ZZ)
    congruent to target_x mod p, found by digit-by-digit refinement."""

    h, hd = cubic.evaluate, cubic.derivative().evaluate
    simple = hd(target_x) % p != 0 and h(target_x) % p == 0
    frontier = [target_x]
    for depth in range(1, MAX_HENSEL_DEPTH + 1):
        pk = p**depth
        for x in frontier:
            hx, hdx = h(x), hd(x)
            if hx == 0:
                return HenselCertificate(x % pk, depth, None, padic_val(hdx, p) if hdx else None, simple)
            vh = padic_val(hx, p)
            vd = padic_val(hdx, p) if hdx != 0 else vh  # hd = 0 forces more digits
            if vh > 2 * vd:
                return HenselCertificate(x % pk, depth, vh, vd, simple)
        # keep every residue mod p^(depth+1) on which h gains a digit
        nxt = []
        for x in frontier:
            for t in range(p):
                cand = x + pk * t
                hc = h(cand)
                if hc == 0 or padic_val(hc, p) > depth:
                    nxt.append(cand)
        if not nxt:
            raise DomainError(
                f"no p-adic root of the lift cubic above x={target_x} mod {p}"
            )
        frontier = nxt
    raise BudgetError(f"Hensel refinement exceeded depth {MAX_HENSEL_DEPTH}")


def lift_plan(model: ShortModel, p: int, ell: int) -> LiftPlan:
    """Lifting plan for the ell-part of the reduction of `model` at p.

    Requires good reduction and p coprime to delta'*ell*(ell-1)*(ell+1).
    Picks the lexicographically smallest (x, y) generator of the ell-primary
    part, lifts its y verbatim, and certifies a p-adic root of
    X^3 + AX + B - y^2 above the generator's x. A non-cyclic ell-primary part
    (possible only when p = 1 mod ell) has no generator: DomainError.
    p above ORDER_CEILING is refused before its probable-prime test.
    """
    check_order_ceiling(p)
    if not is_prime(p) or not is_prime(ell):
        raise DomainError("p and ell must be prime")
    for name, value in (("delta'", model.delta_prime()), ("ell", ell), ("ell-1", ell - 1), ("ell+1", ell + 1)):
        if value % p == 0:
            raise DomainError(f"p={p} divides {name}")
    curve = reduce_curve(model, p)  # raises on bad reduction
    N = group_order(curve)  # kept on `curve`, so ell_primary below does not recount
    n = padic_val(N, ell)
    m = N // ell**n

    # Bezout pair with a in [1, ell): ell divides 1 - m*a, so b is exact
    a = pow(m % ell, -1, ell)
    b = (1 - m * a) // ell

    if n == 0:
        return LiftPlan(p, ell, 0, m, None, None, None, None, None, (a, b), None)

    prim = ell_primary(curve, ell)
    if not prim.cyclic:
        raise DomainError(
            f"{ell}-primary part Z/{ell**prim.e1} x Z/{ell**prim.e2} of E(F_{p}) "
            "is not cyclic, so it has no generator to lift"
        )
    gen = min(prim.points_by_order[ell**n])
    if point_order(curve, gen) != ell**n:
        raise InvariantViolation(f"generator {gen} does not have order {ell}^{n}")

    x_bar, y_bar = gen
    y_lift = y_bar % p
    y_squared = y_lift * y_lift
    cubic = (model.B - y_squared, model.A, 0, 1)
    cert = _hensel_certificate(ExactPoly.from_ints(ZZ, cubic), p, x_bar % p)
    return LiftPlan(
        p, ell, n, m, gen, y_lift, Fraction(y_squared), tuple(map(Fraction, cubic)), x_bar % p, (a, b), cert
    )
