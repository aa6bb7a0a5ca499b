"""Whole-polynomial oracles for the top-coefficient checks of shascope.divpoly.

check_lemma5 and cor7_check read the top two coefficients of f_n and of
Phi_m from a TopTable; these build the whole polynomials from a full
DivisionTable, so the tests can compare the two.
"""

from shascope.divpoly import DivisionTable
from shascope.errors import DomainError
from shascope.poly import ExactPoly


def psi_squared(table: DivisionTable, n: int) -> ExactPoly:
    """(Psi'_n)^2 as a polynomial in X: f_n^2, times psi for even n."""
    if n < 1:
        raise DomainError("n >= 1 required")
    fn = table.f(n)
    sq = fn * fn
    return sq * table.psi if n % 2 == 0 else sq


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
