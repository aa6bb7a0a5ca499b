import hashlib
import random
import resource
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from shascope.arith import factorize, primes_below
from shascope.curves import (
    LongModel,
    ReductionReport,
    ShortModel,
    bad_primes,
    delta_prime_factorization,
    minimize_short,
    reduction_report,
    to_short,
)
from shascope.errors import DomainError
from shascope.galoisrules import (
    MAZUR_ISOGENY_BOUND,
    SMALL_EXCEPTIONAL,
    _tail_bound,
    borel_excluded,
    image_verdict,
    phi_prime_sets,
    semistable_rule,
    tate_witnesses,
    theorem5_report,
)

EX2_LONG = LongModel(0, 1692602, 0, -530052723915, 0)
EX3_LONG = LongModel(1, -1, 0, -332311, -73733731)


def _reports(long_model):
    m, _ = minimize_short(to_short(long_model))
    return bad_primes(m)


def test_small_exceptional_set():
    assert SMALL_EXCEPTIONAL == (2, 3, 5, 7, 13)


def test_tate_order_rule_example3():
    reports = _reports(EX3_LONG)
    assert tate_witnesses(reports, 5) == [2]  # ord_2(j) = -7, coprime to 5
    assert tate_witnesses(reports, 7) == []  # 7 | 7


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
    # oracle: the primes dividing every candidate order of Phi, by
    # factorization. p >= 5 has the one order 12/gcd(v, 12); at p = 2 the
    # order lies in {2, 3, 4, 6, 8, 24}, and in {3, 6, 24} when 3 does not
    # divide v = ord_2(Delta), calibrated at v = 8. p = 3 (wild inertia) and
    # potentially multiplicative primes have no set
    def candidates(p, v):
        if p >= 5:
            return {12 // gcd(v, 12)}
        return {3, 6, 24} if v % 3 else {2, 3, 4, 6, 8, 24}

    reports = [
        ReductionReport(p, "additive", None, "potentiallyGood", v, 0, 0)
        for p in (2, 3, 5, 7, 23) for v in range(1, 31)
    ]
    reports.append(ReductionReport(11, "multiplicative", "split", "potentiallyMultiplicative", 3, 0, -3))
    expected = []
    for r in reports:
        if r.p == 3 or r.potential != "potentiallyGood":
            continue
        v = r.ord_delta
        common = set.intersection(*(set(factorize(c).primes()) for c in candidates(r.p, v)))
        notes = []
        if r.p == 2 and v % 3 and v != 8:
            notes = [f"p=2 narrowing calibrated at ord_2(Delta)=8, extrapolated to {v}"]
        expected.append((r.p, sorted(common), notes))
    assert phi_prime_sets(reports) == expected
    assert (5, [3], []) in expected  # ord_5(Delta) = 4: Phi = 3


def test_phi_order_candidates():
    # the Phi-order primes of Examples 3 and 2; Example 3's p = 2 is
    # potentially multiplicative and has no set
    ex3 = phi_prime_sets(_reports(EX3_LONG))
    assert (23, [2, 3], []) in ex3  # 12/gcd(10, 12) = 6
    assert 2 not in [p for p, _, _ in ex3]
    assert (2, [3], []) in phi_prime_sets(_reports(EX2_LONG))  # ord_2(Delta) = 8: {3, 6, 24}


def test_semistable_rule():
    reports = bad_primes(ShortModel(1, 1))  # only 31, multiplicative
    assert semistable_rule(reports, 11)
    assert not semistable_rule(reports, 7)
    assert not semistable_rule(_reports(EX3_LONG), 11)  # 23 is additive
    # vacuously true on no reports, which no curve has (delta' = +-1 has no solution)
    assert semistable_rule([], 11) and not semistable_rule([], 7)


def test_image_verdict_example3():
    reports = _reports(EX3_LONG)
    phi_sets = phi_prime_sets(reports)
    full = {ell: image_verdict(reports, phi_sets, ell).full for ell in (2, 3, 5, 7, 11, 13, 23, 41)}
    assert [ell for ell, ok in full.items() if not ok] == [2, 3, 7, 23]
    v = image_verdict(reports, phi_sets, 5)
    assert v.chain == "b"
    with pytest.raises(DomainError):
        image_verdict(reports, phi_sets, 4)


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
    v = image_verdict(reports, phi_prime_sets(reports), 17)
    assert not v.full and v.chain is None


def test_chain_e_on_a_twist_with_ell_dividing_delta_prime():
    # y^2 = x^3 + 25x + 875, the twist by 5 of x^3 + x + 7: delta' = 5^6 * 1327.
    # 5 is additive, so chain a fails; the only Phi-order prime is 2 (ord_5 of
    # Delta is 6, Phi = 2), which divides every p0(p0 - 1), so chain b fails;
    # 1327 is multiplicative with ord(j) = -1, a Tate witness at every ell
    reports = bad_primes(ShortModel(25, 875))
    assert [(r.p, r.kind, r.ord_delta) for r in reports] == [(5, "additive", 6), (1327, "multiplicative", 1)]
    phi_sets = phi_prime_sets(reports)
    assert phi_sets == [(5, [2], [])]
    assert MAZUR_ISOGENY_BOUND == 37
    v = image_verdict(reports, phi_sets, 37)
    assert not v.full and v.chain is None
    assert v.reasons[-1] == "ell=37 not above 37, Mazur's isogeny bound"
    for ell in (41, 1151, 1327):
        v = image_verdict(reports, phi_sets, ell)
        assert v.full and v.chain == "e", ell
        assert "p0=1327" in v.reasons[-1] and "Mazur 1978" in v.reasons[-1]
        assert "Serre 1972, Prop. 15" in v.reasons[-2]
    # at p0 = ell = 1327 chain e still applies, but the report keeps the primes
    # of delta' as candidates
    rep = theorem5_report(ShortModel(25, 875))
    assert rep.exceptional == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 1327)
    assert rep.smallest_full == 41


@pytest.mark.parametrize("j,ell", [(-884736000, 43), (-147197952000, 67), (-262537412640768000, 163)])
def test_chain_e_needs_a_tate_witness_on_cm_curves(j, ell):
    # CM by the maximal orders of Q(sqrt(-43)), Q(sqrt(-67)), Q(sqrt(-163)):
    # j is integral, so there is no Tate witness, and each curve has a
    # rational ell-isogeny with ell > 37; its mod-ell image is Borel
    reports = bad_primes(_curve_with_j(Fraction(j)))
    assert all(r.potential != "potentiallyMultiplicative" for r in reports)
    phi_sets = phi_prime_sets(reports)
    v = image_verdict(reports, phi_sets, ell)
    assert not v.full and v.chain is None
    assert _tail_bound(reports, phi_sets) is None


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


def _curve_with_j(j: Fraction) -> ShortModel:
    """y^2 = x^3 + 3j(1728 - j)x + 2j(1728 - j)^2, scaled by u = den(j) to
    integer coefficients, then minimized."""
    u = j.denominator
    A, B = 3 * j * (1728 - j) * u**4, 2 * j * (1728 - j) ** 2 * u**6
    return minimize_short(ShortModel(int(A), int(B)))[0]


def _tail_test_curves() -> list[ShortModel]:
    rng = random.Random(23)
    out = []
    while len(out) < 120:
        A, B = rng.randint(-300, 300), rng.randint(-300, 300)
        if 4 * A**3 + 27 * B**2:
            out.append(ShortModel(A, B))
    # delta' = 27 p^k (p^k + 4): multiplicative at p with ord_p(j) = -k. No
    # bad prime has a supported Phi-order set (3 is wild, the rest are
    # multiplicative), so chain b never applies, and chain e's tail is
    # max(37, k)
    out += [ShortModel(-3, 2 + p**k) for p in (5, 7, 11, 13) for k in (1, 2, 3, 5, 7)]
    # j = N / 2^e: 2 is the only potentially multiplicative prime, with
    # ord_2(j) = -e, and Phi = 6 at p = N excludes Borel images, so chain b's
    # tail is e itself and ell = e is a candidate above smallest_full = 11
    out += [_curve_with_j(Fraction(N, 2**e)) for N, e in ((5, 19), (13, 17))]
    return out


def _scan_every_prime(model: ShortModel, scan_bound: int):
    """theorem5_report without the tail stop: a verdict at every prime below
    scan_bound, and the set and smallest_full read from all of them."""
    minimized, fac = delta_prime_factorization(model)
    reports = [reduction_report(minimized, p) for p in fac.primes()]
    phi_sets = phi_prime_sets(reports)
    verdicts = {ell: image_verdict(reports, phi_sets, ell) for ell in primes_below(scan_bound)}
    base = set(SMALL_EXCEPTIONAL) | set(fac.primes())
    exceptional = tuple(sorted(base | {ell for ell, v in verdicts.items() if not v.full}))
    smallest_full = min((ell for ell, v in verdicts.items() if v.full and ell not in base), default=None)
    return reports, phi_sets, verdicts, exceptional, smallest_full


def test_theorem5_tail_bound_against_a_scan_of_every_prime():
    for model in _tail_test_curves():
        reports, phi_sets, ref, exceptional, smallest_full = _scan_every_prime(model, 3000)
        rep = theorem5_report(model, scan_bound=3000)
        assert (rep.exceptional, rep.smallest_full) == (exceptional, smallest_full), model
        kept = {v.ell: v for v in rep.verdicts}
        assert list(kept) == sorted(kept), model
        assert all(v == ref[ell] for ell, v in kept.items()), model
        assert all(ell in kept for ell, v in ref.items() if not v.full), model
        dp = {r.p for r in reports}
        assert all(ell in kept for ell in ref if ell in dp), model
        tail = _tail_bound(reports, phi_sets)
        if tail is not None:
            assert all(v.full for ell, v in ref.items() if ell > tail and ell not in dp), model


def test_theorem5_tail_bound_from_ord_j_in_chain_b():
    model = _curve_with_j(Fraction(13, 2**17))
    reports = bad_primes(model)
    assert [r.p for r in reports if r.potential == "potentiallyMultiplicative"] == [2]
    assert _tail_bound(reports, phi_prime_sets(reports)) == 17
    rep = theorem5_report(model, scan_bound=100)
    assert rep.smallest_full == 11 and 17 in rep.exceptional
    assert [v.ell for v in rep.verdicts] == [2, 3, 5, 7, 11, 13, 17]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_theorem5_scan_bound_far_past_the_tail_bound():
    # with a tail bound L, the sieve stops at the first prime above L off the
    # base set, so the report at scan_bound 10^9 equals the one at 10^4; the
    # child runs under a 1 GB address-space cap, so a sieve of every prime
    # below 10^9 fails fast with MemoryError instead of taking gigabytes
    code = (
        "from shascope.curves import ShortModel\n"
        "from shascope.galoisrules import theorem5_report\n"
        "for model in (ShortModel(25, 875), ShortModel(-5316979, -4724275762)):\n"
        "    assert theorem5_report(model, scan_bound=10**9) == theorem5_report(model, scan_bound=10**4), model\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_theorem5_scan_bound_ceiling_without_a_tail_bound():
    # integral j gives no tail bound, so every prime below scan_bound would get
    # a verdict: above SCAN_BOUND_CEILING that is refused before the sieve. The
    # child runs under a 1 GB address-space cap, so a sieve of every prime
    # below 10^9 fails fast with MemoryError instead of taking gigabytes
    code = (
        "from shascope.curves import ShortModel\n"
        "from shascope.errors import BudgetError\n"
        "from shascope.galoisrules import theorem5_report\n"
        "try:\n"
        "    theorem5_report(ShortModel(-43, 86), scan_bound=10**9)\n"
        "except BudgetError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    message = "scan_bound 1000000000 exceeds ceiling 10000000 with no tail bound (integral j)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, message, "")

def test_theorem5_audit_trail_pin():
    # one sha256 over (A, B, ell, full, chain, reasons) of every verdict on 300
    # seeded curves: the byte sweep pins only the exceptional set, not the
    # reasons an audit trail prints
    rng = random.Random(29)
    curves = []
    while len(curves) < 300:
        A, B = rng.randint(-300, 300), rng.randint(-300, 300)
        if 4 * A**3 + 27 * B**2:
            curves.append(ShortModel(A, B))
    digest = hashlib.sha256()
    verdicts = [(m, v) for m in curves for v in theorem5_report(m, scan_bound=1000).verdicts]
    for m, v in verdicts:
        digest.update(repr((m.A, m.B, v.ell, v.full, v.chain, v.reasons)).encode() + b"\n")
    assert len(verdicts) == 3034
    assert sum(any(r.startswith("p=2 narrowing") for r in v.reasons) for _, v in verdicts) == 132
    assert {v.chain for _, v in verdicts} == {"a", "b", "e", None}
    assert digest.hexdigest() == "d7b11577996ecc734535d6f38fe88afc5a615cc0d7f42593f413817a3d1e3ed2"
