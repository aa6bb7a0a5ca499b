"""Decision rules for the mod-ell Galois image of a rational elliptic curve.

Everything here consumes local reduction data (per-prime reduction reports)
and produces either a verdict that the mod-ell image is the full group
GL_2(F_ell), or a reason the rules don't decide. Three chains decide (see
`image_verdict`): a (semistable), b (a Tate witness and a Phi-order prime
that excludes Borel images) and e (a Tate witness and ell > 37, from Serre,
Invent. Math. 15 (1972), Prop. 15, and Mazur, Invent. Math. 44 (1978)). The
headline product is `theorem5_report`: the finite candidate set of primes
ell at which the image can fail to be full, together with a per-ell audit
trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import is_prime, primes_below
from .curves import LongModel, ReductionReport, ShortModel, delta_prime_factorization, reduction_report, to_short
from .errors import BudgetError, DomainError


# ell with (ell - 1) | 12, which forces ell <= 13: the mod-ell cyclotomic
# character is too small there for the determinant argument, so these are
# always kept as candidates
SMALL_EXCEPTIONAL = tuple(ell for ell in primes_below(14) if 12 % (ell - 1) == 0)
MAZUR_ISOGENY_BOUND = 37  # the largest degree of a rational isogeny of prime degree on a non-CM curve over Q
SCAN_BOUND_CEILING = 10**7  # largest scan_bound with no tail bound: every prime below it gets a verdict


def tate_witnesses(reports: list[ReductionReport], ell: int) -> list[int]:
    """Potentially multiplicative primes p0 with ell not dividing ord_{p0}(j);
    at each such p0 the local image contains an element of order ell, which
    rules out image subgroups of order prime to ell. Potentially
    multiplicative means ord_{p0}(j) < 0, so ord_j is never None here."""
    return [r.p for r in reports if r.potential == "potentiallyMultiplicative" and r.ord_j % ell != 0]


def phi_prime_sets(reports: list[ReductionReport]) -> list[tuple[int, list[int], list[str]]]:
    """Per potentially good prime p other than 3, in report order: p, the
    primes dividing every candidate order of the local inertia quotient Phi
    (ascending) and the notes.

    The candidates come from v = ord_p(Delta) of the minimized model. At
    p >= 5 the order is exactly 12/gcd(v, 12), so its primes are the q in
    {2, 3} that divide it. At p = 2 the order lies in {2, 3, 4, 6, 8, 24},
    which share no prime; when 3 does not divide v the orders divisible only
    by 2 are excluded, and {3, 6, 24} share 3. That narrowing is calibrated
    at v = 8; other v carry an extrapolation note. p = 3 is skipped: its
    inertia is wild.
    """
    out = []
    for r in reports:
        p, v = r.p, r.ord_delta
        if r.potential != "potentiallyGood" or p == 3:
            continue
        if p >= 5:
            out.append((p, [q for q in (2, 3) if 12 // gcd(v, 12) % q == 0], []))
        elif v % 3 == 0:
            out.append((p, [], []))
        else:
            out.append((p, [3], [] if v == 8 else [f"p=2 narrowing calibrated at ord_2(Delta)=8, extrapolated to {v}"]))
    return out


def borel_excluded(
    phi_sets: list[tuple[int, list[int], list[str]]], p0: int
) -> tuple[bool, int | None, list[str]]:
    """Borel (reducible) images excluded at every ell coprime to p0(p0 - 1):
    a potentially good prime p whose Phi-order candidates share a prime factor
    q with q not dividing p0(p0 - 1) forces an inertia element incompatible
    with an eigenbasis. At ell = p, Phi_p says nothing about how inertia acts
    on E[ell], so a caller deciding one ell drops the set for p = ell.

    Returns (excluded, the shared prime q or None, notes).
    """
    notes: list[str] = []
    for _, common, c_notes in phi_sets:
        notes.extend(c_notes)
        for q in common:
            if p0 % q != 0 and (p0 - 1) % q != 0:
                return True, q, notes
    return False, None, notes


def semistable_rule(reports: list[ReductionReport], ell: int) -> bool:
    """Full image for ell >= 11 when every bad prime is multiplicative."""
    return ell >= 11 and all(r.kind == "multiplicative" for r in reports)


@dataclass(frozen=True)
class Verdict:
    ell: int
    full: bool
    chain: str | None  # which rule chain decided, if any
    reasons: tuple[str, ...]


def image_verdict(
    reports: list[ReductionReport], phi_sets: list[tuple[int, list[int], list[str]]], ell: int
) -> Verdict:
    """Attempt to certify that the mod-ell image is all of GL_2(F_ell).

    Chains, tried in order:
      a. semistable: every bad prime multiplicative and ell >= 11.
      b. ell >= 5, the Tate order rule holds at some p0, and Borel images are
         excluded via a potentially good prime p != ell (shared Phi-order
         factor q with q coprime to p0(p0 - 1)).
      e. ell > 37 and the Tate order rule holds at some p0. The Tate curve at
         p0 puts an element of order ell in the image, also at p0 = ell: over
         Q_ell(mu_ell), of ramification index ell - 1, ord(q) stays prime to
         ell, so q^(1/ell) gives a Kummer extension of degree ell acting by an
         order-ell unipotent (a quadratic twist keeps its square). By Serre
         1972, Prop. 15, the image contains SL_2(F_ell) or is Borel. j is not
         integral at p0, so E has no CM and, by Mazur 1978, no rational
         ell-isogeny; det is surjective over Q.

    phi_sets is phi_prime_sets(reports).
    """
    if not is_prime(ell):
        raise DomainError("ell must be prime")
    if semistable_rule(reports, ell):
        return Verdict(ell, True, "a", ("all bad primes multiplicative and ell >= 11",))

    witnesses = tate_witnesses(reports, ell)
    if not witnesses:
        return Verdict(ell, False, None, ("no potentially multiplicative prime with ell coprime to ord(j)",))

    reasons: list[str] = []
    if ell >= 5:
        away_from_ell = [s for s in phi_sets if s[0] != ell]
        for w in witnesses:
            excluded, q, notes = borel_excluded(away_from_ell, w)
            reasons.extend(notes)
            if excluded:
                return Verdict(ell, True, "b", (
                    *reasons,
                    f"order-ell element from p0={w} (ord(j) coprime to ell)",
                    f"Borel excluded via shared Phi-order prime q={q}",
                ))
        reasons.append("Borel exclusion inconclusive at every potentially good prime")

    p0 = witnesses[0]
    if ell > MAZUR_ISOGENY_BOUND:
        return Verdict(ell, True, "e", (
            *reasons,
            f"order-ell element from p0={p0}: the image contains SL_2 or is Borel (Serre 1972, Prop. 15)",
            f"j non-integral at p0={p0}, so no CM: no rational ell-isogeny for ell > {MAZUR_ISOGENY_BOUND} (Mazur 1978)",
        ))
    reasons.append(f"ell={ell} not above {MAZUR_ISOGENY_BOUND}, Mazur's isogeny bound")
    return Verdict(ell, False, None, tuple(reasons))


def _tail_bound(reports: list[ReductionReport], phi_sets: list[tuple[int, list[int], list[str]]]) -> int | None:
    """An L such that every prime ell > L not dividing delta' is certified full,
    or None when no chain gives one; the least L over the chains that apply.

    Above max(4, |ord_{p0}(j)|) a potentially multiplicative p0 is a Tate
    witness, and the only ell-dependent filter left in chain b drops the
    potentially good p = ell, which divides delta'. So chain a holds for
    ell > 10, chain b for ell > max(4, |ord_{p0}(j)|) at each p0 where Borel
    images are excluded, and chain e for ell > max(37, |ord_{p0}(j)|) at every
    potentially multiplicative p0. Only a curve with integral j has no L.
    """
    bounds = [10] if semistable_rule(reports, 11) else []
    for r in reports:
        if r.potential == "potentiallyMultiplicative":
            oj = abs(r.ord_j)
            bounds.append(max(MAZUR_ISOGENY_BOUND, oj))
            if borel_excluded(phi_sets, r.p)[0]:
                bounds.append(max(4, oj))
    return min(bounds, default=None)


@dataclass(frozen=True)
class Theorem5Report:
    model: ShortModel  # minimized short model the analysis ran on
    exceptional: tuple[int, ...]  # candidate primes where the image may be small
    smallest_full: int | None  # smallest scanned ell certified full
    # per-ell audit of the scanned ell <= max(L, smallest_full) and the scanned
    # primes of delta' (L from _tail_bound; every scanned prime when there is none)
    verdicts: tuple[Verdict, ...]


def theorem5_report(model, *, scan_bound: int = 10**4, effort: int = 50) -> Theorem5Report:
    """Finite candidate set of primes ell with possibly non-full mod-ell image.

    The set is {2, 3, 5, 7, 13} union primes of delta' of the minimized model
    union primes below scan_bound where no chain (a, b or e) applies. Primes
    of delta' are kept as candidates unconditionally (the local analysis
    above assumes ell is coprime to the conductor support). delta' is
    factored with the given effort (see arith.factorize).

    Above the tail bound L (see _tail_bound; at most max(37, |ord_{p0}(j)|)
    by chain e when j is not integral) every prime off delta' is certified
    full, so verdicts go only to the scanned ell <= max(L, smallest_full) and
    the scanned primes of delta'; with no L, to every one. With an L the sieve
    stops at the first prime above L off the base set, where smallest_full is
    set at the latest, so its cost does not grow with scan_bound. With no L
    it sieves every prime below scan_bound, which is refused above
    SCAN_BOUND_CEILING.
    """
    if scan_bound < 0:
        raise DomainError(f"scan_bound must be >= 0, got {scan_bound}")
    if isinstance(model, LongModel):
        model = to_short(model)
    minimized, fac = delta_prime_factorization(model, effort=effort)
    reports = [reduction_report(minimized, p) for p in fac.primes()]
    dp_primes = {r.p for r in reports}

    # {2,3,5,7,13} and the primes of delta' are kept as candidates even when a
    # chain nominally certifies them: the local analysis assumes ell coprime to
    # the bad primes, and the small-exceptional ell evade the determinant step.
    base = set(SMALL_EXCEPTIONAL) | dp_primes
    exceptional = set(base)
    verdicts: list[Verdict] = []
    smallest_full: int | None = None
    phi_sets = phi_prime_sets(reports)
    tail = _tail_bound(reports, phi_sets)
    if tail is None:
        if scan_bound > SCAN_BOUND_CEILING:
            raise BudgetError(
                f"scan_bound {scan_bound} exceeds ceiling {SCAN_BOUND_CEILING} with no tail bound (integral j)"
            )
        ells = primes_below(scan_bound)
    else:
        # past the first prime above L off base only delta' primes get verdicts
        first = tail + 1
        while first in base or not is_prime(first):
            first += 1
        stop = min(first + 1, scan_bound)
        ells = primes_below(stop) + sorted(p for p in dp_primes if stop <= p < scan_bound)
    for ell in ells:
        if smallest_full is not None and tail is not None and ell > tail and ell not in dp_primes:
            continue  # certified full by the chain that gives the tail bound
        v = image_verdict(reports, phi_sets, ell)
        verdicts.append(v)
        if not v.full:
            exceptional.add(ell)
        elif ell not in base and smallest_full is None:
            smallest_full = ell
    return Theorem5Report(
        minimized, tuple(sorted(exceptional)), smallest_full, tuple(verdicts)
    )
