"""Weierstrass models over Q: invariants, short-form conversion, minimization,
and per-prime reduction classification.

No Tate's algorithm here: for p in {2, 3} the classification comes from the
(possibly non-minimal) short model and the report carries a caveat; the
potential reduction type read from ord_p(j) is model-independent and is the
authoritative field at those primes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import Factorization, factorize, is_prime, legendre, padic_val
from .errors import DomainError, SingularCubicError


class LongModel(NamedTuple):
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, integer coefficients."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int


class ShortModel(NamedTuple):
    """y^2 = x^3 + A x + B, integer coefficients, 4A^3 + 27B^2 != 0."""

    A: int
    B: int

    def delta_prime(self) -> int:
        return 4 * self.A**3 + 27 * self.B**2


class Invariants(NamedTuple):
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    delta: int
    delta_prime: int
    j: Fraction


class ReductionReport(NamedTuple):
    p: int
    kind: str  # "good" | "multiplicative" | "additive"
    split: str | None  # for multiplicative: "split" | "nonsplit" | "undetermined"
    potential: str  # "potentiallyGood" | "potentiallyMultiplicative"
    ord_delta: int
    ord_c4: int | None  # None encodes +infinity (c4 = 0)
    ord_j: int | None  # None encodes j = 0 (ord_p j = +infinity)
    caveat: str | None = None


def invariants(model: LongModel | ShortModel) -> Invariants:
    """The b/c/Delta/j record; raises SingularCubicError when Delta = 0.

    delta_prime is 4A^3+27B^2 of the associated short model (-27c4, -54c6);
    for a ShortModel input it is 4A^3+27B^2 of the model itself, so that
    Delta = -16*delta_prime.
    """
    m = LongModel(0, 0, 0, model.A, model.B) if isinstance(model, ShortModel) else model
    b2 = m.a1**2 + 4 * m.a2
    b4 = 2 * m.a4 + m.a1 * m.a3
    b6 = m.a3**2 + 4 * m.a6
    b8 = (
        m.a1**2 * m.a6
        + 4 * m.a2 * m.a6
        - m.a1 * m.a3 * m.a4
        + m.a2 * m.a3**2
        - m.a4**2
    )
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if delta == 0:
        raise SingularCubicError(c4)
    if isinstance(model, ShortModel):
        dp = model.delta_prime()
    else:
        A, B = -27 * c4, -54 * c6
        dp = 4 * A**3 + 27 * B**2
    j = Fraction(c4**3, delta)
    return Invariants(b2, b4, b6, b8, c4, c6, delta, dp, j)


def to_short(model: LongModel | ShortModel) -> ShortModel:
    """Short form via (A, B) = (-27 c4, -54 c6); preserves j exactly."""
    inv = invariants(model)  # raises on singular input
    return ShortModel(-27 * inv.c4, -54 * inv.c6)


def minimize_short(model: ShortModel) -> tuple[ShortModel, int]:
    """Largest u >= 1 with u^4 | A and u^6 | B; returns ((A/u^4, B/u^6), u).

    Each prime of u divides g = gcd(A, B), which is |B| at A = 0 and |A| at B = 0.
    """
    A, B = model.A, model.B
    if model.delta_prime() == 0:
        raise SingularCubicError(-48 * A)
    g = gcd(A, B)
    if g == 1:  # most models: no factorize call
        return model, 1
    u = 1
    for p, _ in factorize(g).factors:
        while A % p**4 == 0 and B % p**6 == 0:
            A, B, u = A // p**4, B // p**6, u * p
    return ShortModel(A, B), u


def p_minimize(model: ShortModel, p: int) -> ShortModel:
    """Rescale by u = p while p^4 | A and p^6 | B."""
    if p < 2:
        raise DomainError(f"{p} is not prime")
    A, B = model.A, model.B
    while (A or B) and A % p**4 == 0 and B % p**6 == 0:
        A //= p**4
        B //= p**6
    return ShortModel(A, B)


def reduction_report(model: ShortModel, p: int) -> ReductionReport:
    """Classification of the reduction mod p of the p-minimized short model.

    kind: good (ord Delta = 0), multiplicative (ord c4 = 0 < ord Delta),
    additive (both positive). Split/nonsplit for multiplicative p >= 5 by the
    square test on the node's tangent-slope discriminant. Potential type from
    the sign of ord_p(j) (model-independent). p is tested prime once.
    """
    if p < 2 or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    m = p_minimize(model, p)
    dp = m.delta_prime()
    if dp == 0:
        raise SingularCubicError(-48 * m.A)
    delta = -16 * dp
    c4 = -48 * m.A
    ord_delta = padic_val(delta, p)
    ord_c4 = None if c4 == 0 else padic_val(c4, p)
    ord_j = None if c4 == 0 else 3 * ord_c4 - ord_delta
    potential = "potentiallyGood" if (ord_j is None or ord_j >= 0) else "potentiallyMultiplicative"
    caveat = None
    if p in (2, 3):
        caveat = (
            "classification from possibly non-minimal short model; "
            "potential type via ord_p(j) is authoritative"
        )
    if ord_delta == 0:
        return ReductionReport(p, "good", None, potential, ord_delta, ord_c4, ord_j, caveat)
    if ord_c4 == 0:
        split = "undetermined"
        if p >= 5:
            # node at the double root x0 of the reduced cubic; the simple root
            # is -2*x0 (sum of roots is 0), so A = -3*x0^2 and B = 2*x0^3, and
            # x0 = -3B/(2A) with A a unit (ord c4 = 0); tangent slopes satisfy s^2 = 3*x0
            x0 = -3 * m.B * pow(2 * m.A, -1, p) % p
            split = "split" if legendre(3 * x0 % p, p) == 1 else "nonsplit"
        return ReductionReport(p, "multiplicative", split, potential, ord_delta, ord_c4, ord_j, caveat)
    return ReductionReport(p, "additive", None, potential, ord_delta, ord_c4, ord_j, caveat)


def bad_primes(model: ShortModel) -> list[ReductionReport]:
    """One report per prime dividing delta' of the minimized model, ascending."""
    minimized, fac = delta_prime_factorization(model)
    return [reduction_report(minimized, p) for p in fac.primes()]


def delta_prime_factorization(model: ShortModel, *, effort: int = 50) -> tuple[ShortModel, Factorization]:
    """(minimized model, factorization of its delta')."""
    minimized, _ = minimize_short(model)
    return minimized, factorize(minimized.delta_prime(), effort=effort)
