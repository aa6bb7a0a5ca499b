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

Three tables run that recursion through one fill path: DivisionTable.f
checks a budget, then _fill memoizes f_n and each f_k it reads, smallest k
first; the tables differ only in the budget and in _reduce. DivisionTable
holds whole f_n, up to a degree ceiling, and checks each degree.
ReducedTable holds f_n mod a fixed monic M. TopTable holds the top two
coefficients of f_n, leading first: rev(f_n) = X^d f_n(1/X) mod X^2 with
d = d_n = expected_degree(n), whether or not the degree drops mod p.
Reversal at these formal degrees commutes with the recursion:

    rev_{d+e}(P Q) = rev_d(P) rev_e(Q)      (deg P <= d, deg Q <= e)
    rev_d(P - Q)   = rev_d(P) - rev_d(Q)     (deg P, deg Q <= d)

and in every difference of the recursion both terms have formal degree d_n
(d_n - d_m inside the bracket of f_{2m}), an identity in n that
tests/test_divpoly.py::test_recursion_terms_share_a_degree checks.
Truncation mod X^2 is a ring map, and it commutes with the exact halving.
So TopTable runs the same _step on reversed seeds with rev(psi) = 1 + AX^2 +
BX^3, each value two coefficients long, and needs no degree ceiling.
"""

from __future__ import annotations

from functools import cached_property

from .errors import BudgetError, DomainError, InvariantViolation
from .poly import ZAB, ExactPoly, MPoly, Ring

DEGREE_CEILING = 700  # largest deg f_n a DivisionTable builds
TOP_BITS_CEILING = 1024  # largest bit length of the n whose f_n a TopTable builds
ALPHA_N_CEILING = 300  # largest N = ell^n of an alpha root-sum (cost ~ N^2.3)


class DivisionTable:
    """Memoized f_n table for one curve over one coefficient ring.

    Mutation happens only inside f() and on the first read of top; building
    tables concurrently for distinct curves is safe, concurrent extension of
    one table is not.
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

    @cached_property
    def top(self) -> TopTable:
        """The TopTable of this curve and ring, built on first use and shared."""
        return TopTable(self.ring, self.A, self.B)

    def f(self, n: int) -> ExactPoly:
        if n < 0:
            raise DomainError("f_n defined for n >= 0")
        if n not in self._memo:
            self._check_budget(n)
            self._fill(n)
        return self._memo[n]

    def _check_budget(self, n: int) -> None:
        expected = self.expected_degree(n)
        if expected > DEGREE_CEILING:
            raise BudgetError(f"f_{n} degree {expected} exceeds ceiling {DEGREE_CEILING}")

    def _step(self, n: int) -> ExactPoly:
        """f_n for n >= 5 by the f_{2m} / f_{2m+1} recursion over the memo."""
        f = self._memo.__getitem__
        m = n // 2
        # Squares are formed as x * x, which the multiply kernels square. The
        # other factors join one at a time: over Z[A,B], whose products stay
        # schoolbook, pairing two large products instead cost 1.5x.
        if n % 2 == 0:
            t = f(m + 2) * (f(m - 1) * f(m - 1)) - f(m - 2) * (f(m + 1) * f(m + 1))
            return self._reduce(n, f(m) * t).exact_div_scalar(self.ring.from_int(2))
        a = f(m + 2) * (f(m) * f(m)) * f(m)
        b = f(m + 1) * (f(m + 1) * f(m + 1)) * f(m - 1)
        if m % 2 == 0:
            a = a * self._psi2
        else:
            b = b * self._psi2
        return self._reduce(n, a - b)

    def _reduce(self, n: int, val: ExactPoly) -> ExactPoly:
        """Keep val = f_n (2 f_n before the exact halving, of the same degree)
        whole, after its degree check."""
        expected = self.expected_degree(n)
        # in characteristic p the leading coefficient (= n) can vanish,
        # so the degree may drop; over characteristic 0 it is exact
        if not (val.degree() <= expected if self.ring.characteristic else val.degree() == expected):
            raise InvariantViolation(f"f_{n} degree {val.degree()} != expected {expected}")
        return val

    def _fill(self, n: int) -> None:
        """Memoize f_n and every f_k its recursion reads, smallest k first.

        Each _step then finds the f_k it reads in the memo, so no Python
        recursion builds up, however large n is.
        """
        todo, need = [n], set()
        while todo:
            k = todo.pop()
            if k not in need and k not in self._memo:
                need.add(k)
                m = k // 2
                todo += range(m - 2 if k % 2 == 0 else m - 1, m + 3)
        for k in sorted(need):
            self._memo[k] = self._step(k)


class ReducedTable(DivisionTable):
    """f_n(X) mod a fixed monic modulus M, over ZZ, by the same recursion.

    Reduction mod a monic M is a ring map, and it commutes with the exact
    halving in f_{2m} because the remainder mod M is unique and linear. So
    each value is f_n mod M. Only the O(log n) indices the recursion visits
    are built, each of degree < deg M, so no degree ceiling applies.
    """

    def __init__(self, ring: Ring, A, B, modulus: ExactPoly):
        self.modulus = modulus
        super().__init__(ring, A, B)
        self._psi2 = self._psi2.mod(modulus)
        self._memo = {k: v.mod(modulus) for k, v in self._memo.items()}

    def _check_budget(self, n: int) -> None:
        """None: each value has degree < deg M."""

    def _reduce(self, n: int, val: ExactPoly) -> ExactPoly:
        return val.mod(self.modulus)


class TopTable(DivisionTable):
    """rev(f_n) mod X^2: the top two coefficients of f_n, leading first.

    The module docstring gives the reason the recursion holds on reversed
    values. Only the O(log n) indices the recursion visits are built, each
    two coefficients long; the budget is the bit length of n
    (TOP_BITS_CEILING).
    """

    def __init__(self, ring: Ring, A, B):
        super().__init__(ring, A, B)
        # rev(psi) = 1 + AX^2 + BX^3 = 1 mod X^2
        self.psi = self._psi2 = ExactPoly.const(ring, ring.from_int(1))
        for n, v in self._memo.items():  # rev(f_n) mod X^2: the X^{d_n}, X^{d_n - 1} coefficients
            d = self.expected_degree(n)
            self._memo[n] = ExactPoly.make(ring, [v.coeff(d), v.coeff(d - 1)])

    def _check_budget(self, n: int) -> None:
        if n.bit_length() > TOP_BITS_CEILING:
            raise BudgetError(f"f_n for n of {n.bit_length()} bits exceeds ceiling {TOP_BITS_CEILING} bits")

    def _reduce(self, n: int, val: ExactPoly) -> ExactPoly:
        return ExactPoly.make(self.ring, val.coeffs[:2])


def symbolic_table() -> DivisionTable:
    """DivisionTable over Z[A,B]; the X^k coefficient of f_n has weight deg f_n - k."""
    return DivisionTable(ZAB, MPoly(2, (1,)), MPoly(3, (1,)))


def check_lemma5(table: DivisionTable, n: int) -> bool:
    """Degree, leading coefficient n, and vanishing sub-leading coefficient of f_n.

    Read from the top two coefficients in table.top. The recursion bounds
    deg f_n by d_n, so the degree is d_n iff the X^{d_n} coefficient is
    nonzero; over F_p with p | n it is n = 0, and the check is False.
    """
    if n < 1:
        raise DomainError("n >= 1 required")
    top = table.top.f(n)
    lead = top.coeff(0)
    return bool(lead) and lead == table.ring.from_int(n) and not top.coeff(1)


def quotient_g(table: DivisionTable, ell: int, n: int) -> ExactPoly:
    """g_{ell^n} = f_{ell^n} / f_{ell^(n-1)}, asserted exact.

    Roots are the x-coordinates of points of exact order ell^n.
    """
    if ell <= 2:
        raise DomainError("odd prime ell required")
    if n < 1:
        raise DomainError("n >= 1 required")
    return table.f(ell**n).exact_div(table.f(ell ** (n - 1)))


def verify_eq46(table: DivisionTable) -> bool:
    """f*phi - g*psi == 4A^3 + 27B^2 identically in the table's ring, with
    f = 3X^2 + 4A, phi = X^4 - 2AX^2 - 8BX + A^2, g = 3X^3 - 5AX - 27B and
    psi = X^3 + AX + B."""
    r, A, B = table.ring, table.A, table.B
    c = r.from_int
    f = ExactPoly.make(r, [4 * A, c(0), c(3)])
    phi = ExactPoly.make(r, [A * A, -8 * B, -2 * A, c(0), c(1)])
    g = ExactPoly.make(r, [-27 * B, -5 * A, c(0), c(3)])
    return f * phi - g * table.psi == ExactPoly.const(r, 4 * A * A * A + 27 * B * B)


def torsion_test(table: DivisionTable, x, y, n: int) -> bool:
    """True iff [n]P = O for the affine point P=(x,y).

    Uses f_n(x) = 0 when [2]P != O (y != 0), and (Psi'_n(x,y))^2 = 0 otherwise.
    """
    if n < 1:
        raise DomainError("n >= 1 required")
    # y = 0 and n even: (Psi'_n)^2 = f_n(x)^2 * psi(x) with psi(x) = y^2 = 0
    return not table.f(n).evaluate(x) or (n % 2 == 0 and not table.ring.from_int(y))
