from fractions import Fraction
from math import isqrt

import pytest

from shascope.arith import factorize
from shascope.curves import LongModel, ReductionReport, ShortModel, bad_primes, minimize_short, to_short
from shascope.errors import DomainError
from shascope.galoisrules import (
    borel_excluded,
    image_verdict,
    phi_order_candidates,
    phi_prime_sets,
    semistable_rule,
    serre_bound,
    small_exceptional,
    tate_witnesses,
    theorem5_report,
)

EX2_LONG = LongModel(0, 1692602, 0, -530052723915, 0)
EX3_LONG = LongModel(1, -1, 0, -332311, -73733731)


def _reports(long_model):
    m, _ = minimize_short(to_short(long_model))
    return bad_primes(m)


def test_small_exceptional_set():
    assert [ell for ell in (2, 3, 5, 7, 11, 13, 17, 19) if small_exceptional(ell)] == [2, 3, 5, 7, 13]
    with pytest.raises(DomainError):
        small_exceptional(4)


def test_tate_order_rule_example3():
    reports = _reports(EX3_LONG)
    assert tate_witnesses(reports, 5) == [2]  # ord_2(j) = -7, coprime to 5
    assert tate_witnesses(reports, 7) == []  # 7 | 7


def test_phi_order_candidates():
    reports = {r.p: r for r in _reports(EX3_LONG)}
    cands, notes = phi_order_candidates(reports[23])
    assert cands == {6} and notes == []  # 12/gcd(10,12)
    reports2 = {r.p: r for r in _reports(EX2_LONG)}
    cands2, notes2 = phi_order_candidates(reports2[2])
    assert cands2 == {3, 6, 24} and notes2 == []  # ord_2(Delta) = 8
    with pytest.raises(DomainError):
        phi_order_candidates(reports[2])  # potentially multiplicative


def test_borel_excluded_example3():
    reports = _reports(EX3_LONG)
    excluded, q, _ = borel_excluded(phi_prime_sets(reports), 2)
    assert excluded and q == 3


def test_borel_excluded_needs_q_coprime_to_p0_minus_1():
    # Example 3's only Phi-order primes are 2 and 3 (Phi = 6 at 23); 2 divides
    # every p0(p0 - 1), and 3 does not divide p0(p0 - 1) only for p0 = 2 mod 3
    phi_sets = phi_prime_sets(_reports(EX3_LONG))
    got = {p0: borel_excluded(phi_sets, p0)[:2] for p0 in (2, 3, 5, 7, 11, 13, 19)}
    assert got == {
        2: (True, 3), 3: (False, None), 5: (True, 3), 7: (False, None),
        11: (True, 3), 13: (False, None), 19: (False, None),
    }


def test_phi_prime_sets_against_factorize():
    # oracle: the primes dividing every Phi-order candidate, by factorization
    reports = [ReductionReport(5, "additive", None, "potentiallyGood", v, 0, 0) for v in range(1, 24)]
    reports += [ReductionReport(2, "additive", None, "potentiallyGood", v, 0, 0) for v in range(1, 31)]
    expected = []
    for r in reports:
        cands, notes = phi_order_candidates(r)
        common = set.intersection(*(set(factorize(c).primes()) for c in cands))
        expected.append((r.p, sorted(common), notes))
    assert phi_prime_sets(reports) == expected
    assert (5, [3], []) in expected  # ord_5(Delta) = 4: Phi = 3


def test_serre_bound_exact():
    # oracle: integer part of (sqrt(p)+1)^8 via very high precision isqrt scaling
    for p in (2, 3, 5, 7, 11, 13, 101):
        scale = 10**40
        s = isqrt(p * scale * scale)  # floor(sqrt(p) * 10^40)
        # bracket (sqrt(p)+1)^8 between ((s)/10^40+1)^8 and ((s+1)/10^40+1)^8
        lo = (s + scale) ** 8 // scale**8
        hi = (s + 1 + scale) ** 8 // scale**8
        assert lo == hi  # bracket tight at this precision
        assert serre_bound(p) == lo
    assert serre_bound(2) == 1153
    assert serre_bound(5) == 12026
    assert serre_bound(7) == 31210


def test_semistable_rule():
    reports = bad_primes(ShortModel(1, 1))  # only 31, multiplicative
    assert semistable_rule(reports, 11)
    assert not semistable_rule(reports, 7)
    assert not semistable_rule(_reports(EX3_LONG), 11)  # 23 is additive


def test_image_verdict_example3():
    reports = _reports(EX3_LONG)
    full = {ell: image_verdict(reports, ell).full for ell in (2, 3, 5, 7, 11, 13, 23, 41)}
    assert [ell for ell, ok in full.items() if not ok] == [2, 3, 7, 23]
    v = image_verdict(reports, 5)
    assert v.chain == "b"


def test_chain_b_ignores_inertia_at_p_equal_to_ell():
    # every curve with j = -17^2 * 101^3 / 2 has a rational 17-isogeny, so its
    # mod-17 image is Borel; A = 3j(1728 - j), B = 2j(1728 - j)^2, scaled by
    # u = 2 to clear denominators
    j = Fraction(-(17**2) * 101**3, 2)
    A, B = 3 * j * (1728 - j) * 2**4, 2 * j * (1728 - j) ** 2 * 2**6
    assert A.denominator == B.denominator == 1
    m, _ = minimize_short(ShortModel(int(A), int(B)))
    reports = bad_primes(m)
    # the only Phi-order prime q = 3 coprime to p0(p0 - 1) = 2 comes from
    # p = 17 (ord_17(Delta) = 4, Phi = 3), which says nothing about E[17]
    assert {r.p: r.ord_delta for r in reports}[17] == 4
    v = image_verdict(reports, 17)
    assert not v.full and v.chain is None


def test_chain_c_excludes_ell_dividing_delta_prime():
    # y^2 = x^3 + 25x + 875, the twist by 5 of x^3 + x + 7: delta' = 5^6 * 1327.
    # 5 is additive, so chain a fails; the only Phi-order prime is 2 (ord_5 of
    # Delta is 6, Phi = 2), which divides every p0(p0 - 1), so chain b fails;
    # 1327 is multiplicative and its own Tate witness, and 2 is good with
    # serre_bound(2) = 1153 < 1327, so only the delta' guard keeps 1327 out
    reports = bad_primes(ShortModel(25, 875))
    assert [(r.p, r.kind, r.ord_delta) for r in reports] == [(5, "additive", 6), (1327, "multiplicative", 1)]
    assert phi_prime_sets(reports) == [(5, [2], [])]
    v = image_verdict(reports, 1327)
    assert not v.full and v.chain is None
    assert v.reasons[-1] == "ell=1327 divides delta'"
    v = image_verdict(reports, 1361)
    assert v.full and v.chain == "c"
    v = image_verdict(reports, 1151)  # below serre_bound(2), prime, coprime to delta'
    assert not v.full
    assert v.reasons[-1] == "ell=1151 not above serre_bound for the smallest good prime"


def test_theorem5_example2():
    rep = theorem5_report(EX2_LONG, scan_bound=100)
    assert rep.exceptional == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 8420798017)
    assert rep.smallest_full == 41


def test_theorem5_example3():
    rep = theorem5_report(EX3_LONG, scan_bound=100)
    assert rep.exceptional == (2, 3, 5, 7, 13, 23)
    unknown = [v.ell for v in rep.verdicts if not v.full]
    assert unknown == [2, 3, 7, 23]
    assert rep.model == ShortModel(-5316979, -4724275762)
