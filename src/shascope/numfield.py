"""Exact traces in quotient rings Q[X]/(g): zero-trace checks for torsion
x-coordinates, the normalized alpha root-sums at levels n = 1, 2 and the
level-2 closed form.

Traces use Newton power sums of the (monicized) modulus; inverses use the
extended euclidean algorithm in Q[X]. The alpha root-sum over the roots of
g = f_{ell^n} / f_{ell^(n-1)} comes from a residue identity in the cubic ring
Q[Y]/(psi): sum 1/psi(r) = -Tr(g'/(psi' g)), with g'/g read off the f_k
reduced mod psi^2 along the division recursion, so g (degree 300 at
(ell, n) = (5, 2)) is never built. The checks that stay: psi squarefree,
f_{ell^k} invertible mod psi, and S = 0, which alpha_trace_direct proves
for every curve, ell and n. The level-2 closed form sums over the roots of
g_ell by the same logarithmic derivative, as one trace in Q[Y]/(psi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import is_prime
from .curves import ShortModel
from .divpoly import (
    ALPHA_N_CEILING,
    TOP_BITS_CEILING,
    DivisionTable,
    ReducedTable,
    TopTable,
    symbolic_table,
)
from .errors import BudgetError, DomainError, InvariantViolation, NotInvertibleError
from .poly import QQ, ZZ, ExactPoly, Fp, ext_gcd_qq, poly_gcd


# ---------------------------------------------------------------------------
# quotient rings
# ---------------------------------------------------------------------------


def _is_squarefree_qq(g: ExactPoly) -> bool:
    """Squarefreeness of g over Q, certified cheaply mod small primes first.

    gcd(g, g') = 1 mod q (with lc(g) a q-unit) implies gcd = 1 over Q; if no
    small prime certifies it, fall back to the exact gcd.
    """
    den = lcm(*(c.denominator for c in g.coeffs))  # clears denominators
    gi = [int(c * den) for c in g.coeffs]
    for q in (1000003, 1000033, 1000037, 1000039, 1000081):
        if gi[-1] % q == 0:
            continue
        gq = ExactPoly.from_ints(Fp(q), gi)
        if poly_gcd(gq, gq.derivative()).degree() == 0:
            return True
    return poly_gcd(g, g.derivative()).degree() == 0


class QuotRing:
    """Q[X]/(g) with g monicized and squarefree; elements are ExactPoly over QQ."""

    def __init__(self, g: ExactPoly):
        if g.ring is not QQ:
            g = g.map_coeffs(QQ, Fraction)
        if g.degree() < 1:
            raise DomainError("modulus must have positive degree")
        g = g.monic()
        if not _is_squarefree_qq(g):
            raise DomainError("modulus is not squarefree")
        self.g = g
        self.degree = g.degree()
        self._psums: list[Fraction] = [Fraction(self.degree)]

    def reduce(self, elem: ExactPoly) -> ExactPoly:
        if elem.ring is not QQ:
            elem = elem.map_coeffs(QQ, Fraction)
        return elem.mod(self.g)

    def power_sums(self, upto: int) -> list[Fraction]:
        """Newton power sums p_0..p_upto of the roots of g."""
        c = self.g.coeffs
        d = self.degree
        p = self._psums
        for k in range(len(p), upto + 1):
            s = Fraction(0)
            for i in range(1, min(k - 1, d) + 1):
                s += c[d - i] * p[k - i]
            if k <= d:
                s += k * c[d - k]
            p.append(-s)
        return p[: upto + 1]


def trace_in_ring(ring: QuotRing, elem: ExactPoly) -> Fraction:
    """Sum of elem(r) over the roots r of the modulus, exact."""
    e = ring.reduce(elem)
    if e.is_zero():
        return Fraction(0)
    ps = ring.power_sums(e.degree())
    return sum((c * ps[i] for i, c in enumerate(e.coeffs)), Fraction(0))


def invert_mod(ring: QuotRing, elem: ExactPoly) -> ExactPoly:
    """Inverse of elem modulo g; NotInvertibleError carries the common factor."""
    e = ring.reduce(elem)
    g, s, _ = ext_gcd_qq(e, ring.g)
    if g.degree() != 0:
        raise NotInvertibleError(g)
    return ring.reduce(s)


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
    top = (symbolic_table() if model is None else DivisionTable(ZZ, model.A, model.B)).top
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


def _inverse_root_sum(model: ShortModel, ell: int, n: int, h: ExactPoly) -> Fraction:
    """Sum of 1/h(r) over the roots r of g = f_{ell^n} / f_{ell^(n-1)}, by residues.

    For h squarefree and coprime to g, the residues of g'/(g h) sum to zero,
    so the sum is -Tr_{Q[Y]/(h)}(g'(Y) / (h'(Y) g(Y))), with
    g'/g = f'_{ell^n}/f_{ell^n} - f'_{ell^(n-1)}/f_{ell^(n-1)}. The values
    f_k(e), f'_k(e) at the roots e of h are those of R_k = f_k mod h^2 and
    R'_k, since f_k - R_k vanishes to order 2 there. NotInvertibleError means
    some f_k shares a root with h. With F = R_{ell^n} and f = R_{ell^(n-1)},
    g'/g = (F' f - f' F) / (F f), so one inverse, of F f h', serves.
    """
    K = QuotRing(h)
    M = K.g * K.g
    # over ZZ when M is integral (it is for psi): about 2x faster than over QQ
    ring = ZZ if all(c.denominator == 1 for c in M.coeffs) else QQ
    M = M.map_coeffs(ring, ring.from_int)
    table = ReducedTable(ring, ring.from_int(model.A), ring.from_int(model.B), M)
    F, f = (table.f(k).map_coeffs(QQ, Fraction) for k in (ell**n, ell ** (n - 1)))
    h_d = h.map_coeffs(QQ, Fraction).derivative()
    numer = F.derivative() * f - f.derivative() * F
    return -trace_in_ring(K, numer * invert_mod(K, F * f * h_d))


def alpha_trace_direct(model: ShortModel, ell: int, n: int) -> AlphaTraceResult:
    """S = ell^3 * delta' * sum(1/psi(r)) / deg g_{ell^n} over the roots r of g_{ell^n}.

    The sum comes from the residue identity of `_inverse_root_sum` in the
    cubic ring Q[Y]/(psi), with each f_{ell^k} reduced mod psi^2 along the
    division recursion, so g_{ell^n} itself is never built. Over Q, E[N] is
    étale, so f_N is squarefree whenever delta' != 0 and g needs no
    squarefree certificate; the residue identity counts a multiple root with
    its multiplicity, as power sums do. The checks that remain: the
    preconditions, psi squarefree (QuotRing), f_{ell^k}(Y) invertible mod psi
    (a 2-torsion x-coordinate is no ell-power torsion x-coordinate), and
    S = 0, which holds for every curve, ell and n. Proof, for odd N, with
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
    psi = ExactPoly.from_ints(QQ, [model.B, model.A, 0, 1])
    try:
        total = _inverse_root_sum(model, ell, n, psi)
    except NotInvertibleError as exc:
        raise InvariantViolation(
            "psi shares a root with the torsion polynomial; "
            "a 2-torsion x-coordinate cannot be an ell-torsion x-coordinate"
        ) from exc
    degree = DivisionTable.expected_degree(ell**n) - DivisionTable.expected_degree(ell ** (n - 1))
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
    So the double sum is one trace in K = Q[Y]/(psi),

        Tr_K([t (Y f' - d f) - h0 f'] / (psi' f^3)),

    counting the roots of f with multiplicity (f is squarefree anyway; see
    alpha_trace_direct). NotInvertibleError means f_ell shares a root with psi.

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
    The numerator above is f'(f_{ell-1} f_{ell+1} psi' - (2d + 1) f^2), so
    every term carries f_ell'(e).
    """
    dp = _check_alpha_pre(model, ell, 1)
    table = DivisionTable(ZZ, model.A, model.B)
    psi = ExactPoly.from_ints(QQ, [model.B, model.A, 0, 1])
    K = QuotRing(psi)  # Q[Y]/(psi); a product of fields since psi squarefree
    f = table.f(ell)
    d = f.degree()
    psi_d = psi.derivative()
    f, fd, f_m, f_p = (K.reduce(p) for p in (f, f.derivative(), table.f(ell - 1), table.f(ell + 1)))
    Y = ExactPoly.x(QQ)
    h0 = f * f + (Y * f * fd).scale(2) - f_m * f_p * psi_d
    t = (f * fd).scale(2)
    numer = t * (Y * fd - f.scale(d)) - h0 * fd
    total = trace_in_ring(K, numer * invert_mod(K, psi_d * f * f * f))
    return Fraction(ell**3 * dp) * total / (ell * ell * d)  # deg g_{ell^2} = ell^2 d
