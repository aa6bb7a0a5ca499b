"""Zero-trace checks for torsion x-coordinates, the normalized alpha
root-sums at levels n = 1, 2 and the level-2 closed form, as exact traces in
the integer cubic ring Z[Y]/(psi).

Both alpha sums read f_k at the roots of psi from one ReducedTable mod
psi^2 and take degrees from expected_degree, so no whole f_k is built: not
g = f_{ell^n} / f_{ell^(n-1)} (degree 300 at (ell, n) = (5, 2)), whose
root-sum comes from a residue identity, sum 1/psi(r) = -Tr(g'/(psi' g)),
nor f_ell for step 8. psi is monic and every operand is integral, so an
element is an int triple and Tr(x/y) comes from the 3x3 multiplication
matrix of y (the regular representation; Cohen, A Course in Computational
Algebraic Number Theory, ch. 4). The checks that stay: f_{ell^k} has
nonzero norm mod psi, and S = 0, which alpha_trace_direct proves for every
curve, ell and n. The level-2 closed form sums over the roots of g_ell by
the same logarithmic derivative, as one trace in the same ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """Z[Y]/(Y^3 + aY + b); elements are int triples (z0, z1, z2) = z0 + z1 Y + z2 Y^2.

    The trace sums over the three roots of the modulus, with multiplicity:
    Tr 1 = 3, Tr Y = 0 and Tr Y^2 = -2a are its power sums.
    """

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        self.modulus = ExactPoly.from_ints(ZZ, [b, a, 0, 1])

    def reduce(self, elem: ExactPoly) -> tuple[int, int, int]:
        """The triple of an ExactPoly over ZZ, reduced mod the modulus."""
        c = elem.mod(self.modulus).coeffs
        return (*c, 0, 0, 0)[:3]

    def mul(self, x: tuple, y: tuple) -> tuple[int, int, int]:
        """x * y, with Y^3 = -aY - b and Y^4 = -aY^2 - bY."""
        a, b = self.a, self.b
        x0, x1, x2 = x
        y0, y1, y2 = y
        c3, c4 = x1 * y2 + x2 * y1, x2 * y2
        return (
            x0 * y0 - b * c3,
            x0 * y1 + x1 * y0 - a * c3 - b * c4,
            x0 * y2 + x1 * y1 + x2 * y0 - a * c4,
        )

    def trace_quotient(self, x: tuple, y: tuple) -> Fraction:
        """Tr(x / y) = Tr(x v) / N(y), exact.

        N(y) is the determinant of y's multiplication matrix m (columns y,
        yY, yY^2) and v = N(y) / y is the first column of its adjugate, so
        m v = N(y) e_0. A zero norm means y shares a root with the modulus:
        InvariantViolation.
        """
        a, b = self.a, self.b
        y0, y1, y2 = y
        # rows 1 and 2 of m; row 0 is (y0, -b y2, -b y1)
        m10, m11, m12 = y1, y0 - a * y2, -b * y2 - a * y1
        m20, m21, m22 = y2, y1, y0 - a * y2
        v = (m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20)
        norm = y0 * v[0] - b * (y2 * v[1] + y1 * v[2])
        if norm == 0:
            raise InvariantViolation(
                f"y = {y} has norm 0 in Z[Y]/(Y^3 + aY + b), (a, b) = {(a, b)}: "
                "y shares a root with the modulus"
            )
        z0, _, z2 = self.mul(x, v)
        return Fraction(3 * z0 - 2 * a * z2, norm)


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


@dataclass(frozen=True)
class AlphaTraceResult:
    ell: int
    n: int
    S: Fraction  # normalized root-sum of alpha over primitive ell^n torsion x's
    degree: int  # deg g_{ell^n}


def _check_alpha_pre(model: ShortModel, ell: int, n: int) -> int:
    if ell <= 3:
        raise DomainError("ell > 3 required")
    if n not in (1, 2):
        raise DomainError("n in {1, 2} required")
    if ell**n > ALPHA_N_CEILING:  # before the primality test, which grows with ell too
        raise BudgetError(f"ell^n = {ell**n} exceeds ceiling {ALPHA_N_CEILING}")
    if not is_prime(ell):
        raise DomainError(f"ell={ell} is not prime")
    dp = model.delta_prime()
    if dp % ell == 0:
        raise DomainError(f"ell={ell} divides delta'")
    return dp


def _inverse_root_sum(model: ShortModel, ell: int, n: int, ring: QuotRing) -> Fraction:
    """Sum of 1/h(r) over the roots r of g = f_{ell^n} / f_{ell^(n-1)}, by
    residues, with h = ring.modulus.

    For h coprime to g, the residues of g'/(g h) sum to zero, so the sum is
    -Tr_{Z[Y]/(h)}(g'(Y) / (h'(Y) g(Y))), with
    g'/g = f'_{ell^n}/f_{ell^n} - f'_{ell^(n-1)}/f_{ell^(n-1)}. The values
    f_k(e), f'_k(e) at the roots e of h are those of R_k = f_k mod h^2 and
    R'_k, since f_k - R_k vanishes to order 2 there. With F = R_{ell^n} and
    f = R_{ell^(n-1)}, g'/g = (F' f - f' F) / (F f), so one quotient, by
    F f h', serves.
    """
    h = ring.modulus
    table = ReducedTable(ZZ, model.A, model.B, h * h)
    F, f = table.f(ell**n), table.f(ell ** (n - 1))
    numer = F.derivative() * f - f.derivative() * F
    F, f, numer, h_d = (ring.reduce(p) for p in (F, f, numer, h.derivative()))
    return -ring.trace_quotient(numer, ring.mul(ring.mul(F, f), h_d))


def alpha_trace_direct(model: ShortModel, ell: int, n: int) -> AlphaTraceResult:
    """S = ell^3 * delta' * sum(1/psi(r)) / deg g_{ell^n} over the roots r of g_{ell^n}.

    The sum comes from the residue identity of `_inverse_root_sum` in the
    cubic ring Z[Y]/(psi), with each f_{ell^k} reduced mod psi^2 along the
    division recursion, so g_{ell^n} itself is never built. Over Q, E[N] is
    étale, so f_N is squarefree whenever delta' != 0 and g needs no
    squarefree certificate; the residue identity counts a multiple root with
    its multiplicity, as power sums do. The checks that remain: the
    preconditions (ell does not divide delta', so delta' != 0 and psi is
    squarefree), a nonzero norm of f_{ell^k} f_{ell^(k-1)} psi' in the cubic
    ring (a 2-torsion x-coordinate is no ell-power torsion x-coordinate, and
    psi' shares no root with a squarefree psi), and S = 0, which holds for
    every curve, ell and n. Proof, for odd N, with
    T_i = (e_i, 0) the 2-torsion points:
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
    dp = _check_alpha_pre(model, ell, n)
    total = _inverse_root_sum(model, ell, n, QuotRing(model.A, model.B))
    degree = ReducedTable.expected_degree(ell**n) - ReducedTable.expected_degree(ell ** (n - 1))
    S = Fraction(ell**3 * dp) * total / degree
    if S != 0:
        raise InvariantViolation(f"alpha root-sum S = {S} is not 0")
    return AlphaTraceResult(ell, n, S, degree)


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

    counting the roots of f with multiplicity (f is squarefree anyway; see
    alpha_trace_direct). A zero norm of psi' f^3 (InvariantViolation) would
    mean f_ell shares a root with psi. f_ell, f_ell' and f_{ell+-1} at e are
    read from the ReducedTable mod psi^2, as in _inverse_root_sum, and
    d = expected_degree(ell).

    The value is 0 on every curve: f_n'(e) = 0 at every root e of psi for odd
    n. With sigma the Weierstrass sigma function and omega a period with
    x(omega/2) = e:
    1. psi_n(z) = sigma(nz) / sigma(z)^(n^2).
    2. By quasi-periodicity, log psi_n(omega/2 + u) = L(nu) - n^2 L(u)
       + (terms linear in u) + const, with L(u) = log sigma(omega/2 + u);
       the u^2 term cancels.
    3. For odd n, psi_n(omega/2 + u) = f_n(x(omega/2 + u)) is even in u, and
       x - e = c u^2 + O(u^4) with c != 0, so that u^2 coefficient is
       c f_n'(e) / f_n(e). It is 0, so f_n'(e) = 0.
    The numerator above is f'(f_{ell-1} f_{ell+1} psi' - (2d + 1) f^2), the
    form computed below, so every term carries f_ell'(e).
    """
    dp = _check_alpha_pre(model, ell, 1)
    K = QuotRing(model.A, model.B)
    table = ReducedTable(ZZ, model.A, model.B, K.modulus * K.modulus)
    f, d = table.f(ell), table.expected_degree(ell)
    f, fd, f_m, f_p, psi_d = (
        K.reduce(p) for p in (f, f.derivative(), table.f(ell - 1), table.f(ell + 1), K.modulus.derivative())
    )
    mul = K.mul
    f2 = mul(f, f)
    inner = tuple(x - (2 * d + 1) * y for x, y in zip(mul(mul(f_m, f_p), psi_d), f2))
    total = K.trace_quotient(mul(fd, inner), mul(mul(psi_d, f2), f))
    return Fraction(ell**3 * dp) * total / (ell * ell * d)  # deg g_{ell^2} = ell^2 d
