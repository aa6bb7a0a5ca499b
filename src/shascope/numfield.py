"""Zero-trace checks for torsion x-coordinates, and the normalized alpha
root-sums at levels n = 1, 2 with the level-2 closed form.

Both alpha values are sums over the roots e of psi whose every term carries
f_k'(e) for an odd k, and f_k'(e) = 0 for odd k (proof in
alpha_trace_step8). So both are 0 on every curve, and what runs is the exact
check of that lemma: from one ReducedTable mod psi^2, f_k' mod psi is zero
and f_k mod psi has nonzero norm in the cubic ring Z[Y]/(psi), so no
denominator vanishes at a root of psi. The norm is the determinant of the
multiplication matrix (the regular representation; Cohen, A Course in
Computational Algebraic Number Theory, ch. 4). No whole f_k is built, not
g = f_{ell^n} / f_{ell^(n-1)} (degree 300 at (ell, n) = (5, 2)) nor f_ell
for step 8, and degrees come from expected_degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import is_prime
from .curves import ShortModel
from .divpoly import (
    ALPHA_N_CEILING,
    TOP_BITS_CEILING,
    ReducedTable,
    TopTable,
    symbolic_table,
)
from .errors import BudgetError, DomainError, InvariantViolation
from .poly import ZZ, ExactPoly


# ---------------------------------------------------------------------------
# the cubic ring
# ---------------------------------------------------------------------------


class QuotRing:
    """Z[Y]/(Y^3 + aY + b); elements are int triples (z0, z1, z2) = z0 + z1 Y + z2 Y^2."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        self.modulus = ExactPoly.from_ints(ZZ, [b, a, 0, 1])

    def reduce(self, elem: ExactPoly) -> tuple[int, int, int]:
        """The triple of an ExactPoly over ZZ, reduced mod the modulus."""
        c = elem.mod(self.modulus).coeffs
        return (*c, 0, 0, 0)[:3]

    def norm(self, y: tuple) -> int:
        """N(y), the product of y over the three roots of the modulus, with
        multiplicity: the determinant of y's multiplication matrix m (columns
        y, yY, yY^2), expanded along row 0. It is 0 iff y shares a root with
        the modulus.
        """
        a, b = self.a, self.b
        y0, y1, y2 = y
        # rows 1 and 2 of m; row 0 is (y0, -b y2, -b y1)
        m10, m11, m12 = y1, y0 - a * y2, -b * y2 - a * y1
        m20, m21, m22 = y2, y1, y0 - a * y2
        return y0 * (m11 * m22 - m12 * m21) - b * (
            y2 * (m12 * m20 - m10 * m22) + y1 * (m10 * m21 - m11 * m20)
        )


# ---------------------------------------------------------------------------
# torsion trace identities
# ---------------------------------------------------------------------------


def cor6_check(model: ShortModel, ell: int, n: int = 1) -> bool:
    """Vanishing of the sub-leading coefficient of g_{ell^n} (zero trace of x_n).

    g = F/f with F = f_{ell^n} and f = f_{ell^(n-1)}, so rev(g) = rev(F)/rev(f)
    as power series, with X coefficient (F_1 f_0 - F_0 f_1)/f_0^2 in the top
    coefficients F_0, F_1, f_0, f_1 of a TopTable. The bit length of ell^n,
    bounded by n times that of ell, is checked before ell is tested prime.
    """
    bits = n * ell.bit_length()
    if bits > TOP_BITS_CEILING:
        raise BudgetError(f"ell^n of up to {bits} bits exceeds ceiling {TOP_BITS_CEILING} bits")
    if ell <= 2 or not is_prime(ell):
        raise DomainError("odd prime ell required")
    if n < 1:
        raise DomainError("n >= 1 required")
    top = TopTable(ZZ, model.A, model.B)
    F, f = top.f(ell**n), top.f(ell ** (n - 1))
    return F.coeff(1) * f.coeff(0) == f.coeff(1) * F.coeff(0)


def cor7_check(model: ShortModel | None, ell: int) -> bool:
    """Coefficient of X^(ell^2-1) in Phi_ell(X, lam) equals -ell^2*lam, with
    lam an indeterminate; model=None makes A and B indeterminates too.

    Phi_ell = (X - lam) f_ell^2 - f_{ell-1} f_{ell+1} psi = P - lam f_ell^2,
    with P of degree ell^2 and f_ell^2 of degree ell^2 - 1. So the rule holds
    iff P is monic with no X^(ell^2-1) term and f_ell has leading coefficient
    squaring to ell^2: the top two coefficients of P, where
    rev(P) = rev(f_ell)^2 - rev(f_{ell-1}) rev(f_{ell+1}) rev(psi), and the
    top one of f_ell.
    """
    if ell <= 2 or not is_prime(ell):
        raise DomainError("odd prime ell required")
    top = symbolic_table().top if model is None else TopTable(ZZ, model.A, model.B)
    f, c = top.f, top.ring.from_int
    P = f(ell) * f(ell) - f(ell - 1) * f(ell + 1) * top.psi
    lead = f(ell).coeff(0)
    return P.coeff(0) == c(1) and not P.coeff(1) and lead * lead == c(ell * ell)


# ---------------------------------------------------------------------------
# alpha traces
# ---------------------------------------------------------------------------


class AlphaTraceResult(NamedTuple):
    ell: int
    n: int
    S: Fraction  # normalized root-sum of alpha over primitive ell^n torsion x's
    degree: int  # deg g_{ell^n}


def _check_alpha_pre(model: ShortModel, ell: int, n: int) -> None:
    if ell <= 3:
        raise DomainError("ell > 3 required")
    if n not in (1, 2):
        raise DomainError("n in {1, 2} required")
    if ell**n > ALPHA_N_CEILING:  # before the primality test, which grows with ell too
        raise BudgetError(f"ell^n = {ell**n} exceeds ceiling {ALPHA_N_CEILING}")
    if not is_prime(ell):
        raise DomainError(f"ell={ell} is not prime")
    if model.delta_prime() % ell == 0:
        raise DomainError(f"ell={ell} divides delta'")


def _check_vanishing(model: ShortModel, *ks: int) -> None:
    """For each odd k: f_k' = 0 mod psi, and f_k mod psi has nonzero norm.

    Both are read from one ReducedTable mod psi^2. f_k - R_k, with
    R_k = f_k mod psi^2, vanishes to order 2 at each root e of psi, so
    f_k'(e) = R_k'(e) and f_k(e) = R_k(e). A nonzero norm means f_k(e) != 0
    at every e. Either failure raises InvariantViolation naming k.
    """
    K = QuotRing(model.A, model.B)
    psi = K.modulus
    table = ReducedTable(ZZ, model.A, model.B, psi * psi)
    for k in ks:
        f = table.f(k)
        if not f.derivative().mod(psi).is_zero():
            raise InvariantViolation(f"f_{k}' is not 0 mod psi")
        if K.norm(K.reduce(f)) == 0:
            raise InvariantViolation(f"f_{k} has norm 0 mod psi: it shares a root with psi")


def alpha_trace_direct(model: ShortModel, ell: int, n: int) -> AlphaTraceResult:
    """S = ell^3 * delta' * sum(1/psi(r)) / deg g_{ell^n} over the roots r of g_{ell^n}.

    S = 0 on every curve, ell and n; the value returned is that 0, once
    _check_vanishing has passed for k = ell^n and ell^(n-1). The check
    suffices by the residue identity: for psi coprime to
    g = f_{ell^n} / f_{ell^(n-1)}, the residues of g'/(g psi) sum to zero, so

        sum 1/psi(r) = -Tr_{Z[Y]/(psi)}(g'(Y) / (psi'(Y) g(Y))),

    with g'/g = (F' f - f' F) / (F f), F = f_{ell^n} and f = f_{ell^(n-1)}.
    Both k are odd, so F' and f', and with them the numerator, vanish at
    every root of psi; the nonzero norms of F and f (a 2-torsion
    x-coordinate is no ell-power torsion x-coordinate) and of psi' (psi is
    squarefree, since ell does not divide delta', so delta' != 0) keep the
    denominator nonzero there. Over Q, E[N] is étale, so f_N is squarefree
    whenever delta' != 0 and g needs no squarefree certificate; the residue
    identity counts a multiple root with its multiplicity, as power sums do.

    An independent proof that S = 0, for odd N, with T_i = (e_i, 0) the
    2-torsion points:
    1. The chord through P and T_i gives x(P+T_i) - e_i = psi'(e_i)/(x(P) - e_i).
    2. N is odd, so {Q : [N]Q = T_i} = T_i + E[N], and its x-coordinates,
       with multiplicity, are the roots of Phi_N(X, e_i).
    3. By the Phi coefficient rule that cor7_check tests (the X^(N^2-1)
       coefficient is -N^2 lam, for every N by weight), they sum to N^2 e_i,
       so the sum of x(P+T_i) over P in E[N] - O is (N^2 - 1) e_i.
    4. With step 1, the sum of 1/(x(P) - e_i) over P in E[N] - O is 0.
    5. Partial fractions, 1/psi = sum_i 1/(psi'(e_i) (x - e_i)), make the sum
       of 1/psi(x(P)) over P in E[N] - O zero too.
    6. Each root of g_{ell^n} is x(P) for the two points +-P of E[ell^n]
       outside E[ell^(n-1)], so twice the sum over the roots is 0 - 0.

    The identification of this normalized root-sum with a field trace divided
    by the field degree holds when all primitive ell^n-torsion points are
    Galois-conjugate (full-image hypothesis, checked elsewhere); the root-sum
    itself is defined unconditionally.
    """
    _check_alpha_pre(model, ell, n)
    _check_vanishing(model, ell**n, ell ** (n - 1))
    degree = ReducedTable.expected_degree(ell**n) - ReducedTable.expected_degree(ell ** (n - 1))
    return AlphaTraceResult(ell, n, Fraction(0), degree)


def alpha_trace_step8(model: ShortModel, ell: int) -> Fraction:
    """Level-2 prediction of S from the closed form at the roots of psi.

    For each root e of psi and each root lam of g_ell = f_ell / ell, the fiber
    above lam contributes  -Phi'_ell(e, lam) / ((e - lam) f_ell(e)^2)  to the
    sum of 1/(x - e), with Phi'_ell(Y, L) = h0(Y) - L t(Y),

        h0 = f_ell^2 + 2Y f_ell f_ell' - f_{ell-1} f_{ell+1} psi',
        t  = 2 f_ell f_ell';

    partial fractions 1/psi = sum_i (1/psi'(e_i)) / (x - e_i) assemble S
    without ever building g_{ell^2}. With f = f_ell of degree d, the sums over
    lam are logarithmic derivatives, as in alpha_trace_direct:
    sum 1/(e - lam) = f'(e)/f(e) and sum lam/(e - lam) = -d + e f'(e)/f(e).
    So the double sum is one trace in K = Z[Y]/(psi),

        Tr_K([t (Y f' - d f) - h0 f'] / (psi' f^3)),

    whose numerator is f'(f_{ell-1} f_{ell+1} psi' - (2d + 1) f^2), and the
    prediction is ell^3 delta' / (ell^2 d) times it (deg g_{ell^2} = ell^2 d).
    Every term carries f_ell'(e), so _check_vanishing for k = ell (f_ell'
    = 0 mod psi, and f_ell with nonzero norm keeps psi' f^3 nonzero at each
    e) proves the value 0, which is returned.

    f_n'(e) = 0 at every root e of psi for odd n. With sigma the Weierstrass
    sigma function and omega a period with x(omega/2) = e:
    1. psi_n(z) = sigma(nz) / sigma(z)^(n^2).
    2. By quasi-periodicity, log psi_n(omega/2 + u) = L(nu) - n^2 L(u)
       + (terms linear in u) + const, with L(u) = log sigma(omega/2 + u);
       the u^2 term cancels.
    3. For odd n, psi_n(omega/2 + u) = f_n(x(omega/2 + u)) is even in u, and
       x - e = c u^2 + O(u^4) with c != 0, so that u^2 coefficient is
       c f_n'(e) / f_n(e). It is 0, so f_n'(e) = 0.
    """
    _check_alpha_pre(model, ell, 1)
    _check_vanishing(model, ell)
    return Fraction(0)
