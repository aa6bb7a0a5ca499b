"""Division polynomials f_n on y**2 = x**3 + A*x + B, over any coefficient ring.

Conventions: Psi'_n(x, y) = f_n(x) for odd n and f_n(x)*y for even n, with

    f_1 = 1, f_2 = 2,
    f_3 = 3X^4 + 6AX^2 + 12BX - A^2,
    f_4 = 4(X^6 + 5AX^4 + 20BX^3 - 5A^2X^2 - 4ABX - 8B^2 - A^3),

and recursions (psi = X^3 + AX + B)

    f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2) / 2
    f_{2m+1} = f_{m+2} f_m^3 psi^2 - f_{m+1}^3 f_{m-1}    (m even)
             = f_{m+2} f_m^3 - f_{m+1}^3 f_{m-1} psi^2    (m odd)

The division by 2 is asserted exact at runtime. deg f_n = (n^2-1)/2 for odd n
and (n^2-4)/2 for even n; the roots of f_n are the x-coordinates of the
nonzero n-torsion (odd n) resp. n-torsion with 2-torsion removed (even n).
"""

from __future__ import annotations

from .errors import BudgetError, DomainError, InvariantViolation
from .poly import ZAB, ExactPoly, MPoly, Ring

DEGREE_CEILING = 700  # largest deg f_n a DivisionTable builds


class DivisionTable:
    """Memoized f_n table for one curve over one coefficient ring.

    Mutation happens only inside f(); building a table concurrently for
    distinct curves is safe, concurrent extension of one table is not.
    """

    def __init__(self, ring: Ring, A, B):
        self.ring = ring
        self.A = A
        self.B = B
        c = ring.from_int
        self.psi = ExactPoly.make(ring, [B, A, c(0), c(1)])  # X^3+AX+B
        self._psi2 = self.psi * self.psi
        A2 = A * A
        self._memo: dict[int, ExactPoly] = {
            0: ExactPoly.make(ring, []),
            1: ExactPoly.const(ring, c(1)),
            2: ExactPoly.const(ring, c(2)),
            3: ExactPoly.make(ring, [-A2, 12 * B, 6 * A, c(0), c(3)]),
            4: ExactPoly.make(
                ring, [-4 * (8 * B * B + A2 * A), -16 * A * B, -20 * A2, 80 * B, 20 * A, c(0), c(4)]
            ),
        }

    @staticmethod
    def expected_degree(n: int) -> int:
        return (n * n - 1) // 2 if n % 2 else (n * n - 4) // 2

    def f(self, n: int) -> ExactPoly:
        if n < 0:
            raise DomainError("f_n defined for n >= 0")
        if n not in self._memo:
            expected = self.expected_degree(n)
            if expected > DEGREE_CEILING:
                raise BudgetError(f"f_{n} degree {expected} exceeds ceiling {DEGREE_CEILING}")
            val = self._step(n)
            # in characteristic p the leading coefficient (= n) can vanish,
            # so the degree may drop; over characteristic 0 it is exact
            degree_ok = (
                val.degree() <= expected
                if self.ring.characteristic
                else val.degree() == expected
            )
            if not degree_ok:
                raise InvariantViolation(
                    f"f_{n} degree {val.degree()} != expected {expected}"
                )
            self._memo[n] = val
        return self._memo[n]

    def _step(self, n: int) -> ExactPoly:
        """f_n for n >= 5 by the f_{2m} / f_{2m+1} recursion over self.f."""
        m = n // 2
        if n % 2 == 0:
            t = self.f(m + 2) * self.f(m - 1) * self.f(m - 1) - self.f(m - 2) * self.f(
                m + 1
            ) * self.f(m + 1)
            return self._reduce(self.f(m) * t).exact_div_scalar(self.ring.from_int(2))
        a = self.f(m + 2) * self.f(m) * self.f(m) * self.f(m)
        b = self.f(m + 1) * self.f(m + 1) * self.f(m + 1) * self.f(m - 1)
        return self._reduce(a * self._psi2 - b if m % 2 == 0 else a - b * self._psi2)

    def _reduce(self, val: ExactPoly) -> ExactPoly:
        return val


class ReducedTable(DivisionTable):
    """f_n(X) mod a fixed monic modulus M, over ZZ or QQ, by the same recursion.

    Reduction mod a monic M is a ring map, and it commutes with the exact
    halving in f_{2m} because the remainder mod M is unique and linear. So
    each value is f_n mod M. Only the O(log n) indices the recursion visits
    are built, each of degree < deg M, so no degree ceiling applies.
    """

    def __init__(self, ring: Ring, A, B, modulus: ExactPoly):
        self.modulus = modulus
        super().__init__(ring, A, B)
        self._psi2 = self._reduce(self._psi2)
        self._memo = {k: self._reduce(v) for k, v in self._memo.items()}

    def f(self, n: int) -> ExactPoly:
        if n not in self._memo:
            self._memo[n] = self._step(n)
        return self._memo[n]

    def _reduce(self, val: ExactPoly) -> ExactPoly:
        return val.mod(self.modulus)


def symbolic_table() -> DivisionTable:
    """DivisionTable over Z[A,B]; the X^k coefficient of f_n has weight deg f_n - k."""
    return DivisionTable(ZAB, MPoly(2, (1,)), MPoly(3, (1,)))


def check_lemma5(table: DivisionTable, n: int) -> bool:
    """Degree, leading coefficient n, and vanishing sub-leading coefficient of f_n."""
    if n < 1:
        raise DomainError("n >= 1 required")
    fn = table.f(n)
    d = table.expected_degree(n)
    if fn.degree() != d:
        return False
    lead_ok = fn.lc() == table.ring.from_int(n)
    sub_ok = d == 0 or not fn.coeff(d - 1)
    return lead_ok and sub_ok


def psi_squared(table: DivisionTable, n: int) -> ExactPoly:
    """(Psi'_n)^2 as a polynomial in X: f_n^2, times psi for even n."""
    if n < 1:
        raise DomainError("n >= 1 required")
    fn = table.f(n)
    sq = fn * fn
    return sq * table.psi if n % 2 == 0 else sq


def quotient_g(table: DivisionTable, ell: int, n: int) -> ExactPoly:
    """g_{ell^n} = f_{ell^n} / f_{ell^(n-1)}, asserted exact.

    Roots are the x-coordinates of points of exact order ell^n.
    """
    if ell <= 2:
        raise DomainError("odd prime ell required")
    if n < 1:
        raise DomainError("n >= 1 required")
    if n == 1:
        return table.f(ell)
    return table.f(ell**n).exact_div(table.f(ell ** (n - 1)))


def build_phi(table: DivisionTable, m: int, lam) -> ExactPoly:
    """Phi_m(X, lam) = (X - lam)(Psi'_m)^2 - Psi'_{m-1} Psi'_{m+1}.

    Monic of degree m^2 with X^{m^2-1} coefficient -lam*m^2. Its roots are the
    x-coordinates of points P with x([m]P) = lam.
    """
    if m < 1:
        raise DomainError("m >= 1 required")
    r = table.ring
    if isinstance(lam, int):
        lam = r.from_int(lam)
    x_minus_lam = ExactPoly.make(r, [-lam, r.from_int(1)])
    cross = table.f(m - 1) * table.f(m + 1)
    if m % 2 == 1:
        # m-1, m+1 even: Psi'_{m-1} Psi'_{m+1} = f_{m-1} f_{m+1} y^2
        cross = cross * table.psi
    return x_minus_lam * psi_squared(table, m) - cross


def eq46_parts(table: DivisionTable):
    """(f, phi, g, psi, delta') with f*phi - g*psi = delta' = 4A^3 + 27B^2."""
    r = table.ring
    A, B = table.A, table.B
    c = r.from_int
    f = ExactPoly.make(r, [4 * A, c(0), c(3)])
    phi = ExactPoly.make(r, [A * A, -8 * B, -2 * A, c(0), c(1)])
    g = ExactPoly.make(r, [-27 * B, -5 * A, c(0), c(3)])
    delta = 4 * A * A * A + 27 * B * B
    return f, phi, g, table.psi, delta


def verify_eq46(table: DivisionTable) -> bool:
    """f*phi - g*psi == 4A^3 + 27B^2 identically in the table's ring."""
    f, phi, g, psi, delta = eq46_parts(table)
    lhs = f * phi - g * psi
    return lhs == ExactPoly.const(table.ring, delta)


def torsion_test(table: DivisionTable, x, y, n: int) -> bool:
    """True iff [n]P = O for the affine point P=(x,y).

    Uses f_n(x) = 0 when [2]P != O (y != 0), and (Psi'_n(x,y))^2 = 0 otherwise.
    """
    if n < 1:
        raise DomainError("n >= 1 required")
    r = table.ring
    if isinstance(x, int):
        x = r.from_int(x)
    if isinstance(y, int):
        y = r.from_int(y)
    fnx = table.f(n).evaluate(x)
    if y:
        return not fnx
    # y = 0: (Psi'_n)^2 = f_n(x)^2 * psi(x) for even n, psi(x) = y^2 = 0
    if n % 2 == 0:
        return True
    return not fnx
