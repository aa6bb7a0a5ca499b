"""Acceptance suite: one test per criterion.

Criterion 6 expects Z/4Z for y^2 = x^3 + 4x: [2](2,4) = (0,0), so (2,4) has
order 4 (see tests/test_torsionq.py::test_four_torsion_curve). Each of its
fixture orders is also pinned to the gcd of #E(F_p) over good primes p < 200
(p < 60 is not enough for Example 2, whose gcd there is still 4).
"""

import json
import subprocess
import sys
import time
from math import gcd

from shascope.curves import (
    LongModel,
    ShortModel,
    invariants,
    minimize_short,
    to_short,
)
from shascope.divpoly import (
    DivisionTable,
    check_lemma5,
    quotient_g,
    symbolic_table,
    torsion_test,
    verify_eq46,
)
from shascope.ffcurve import (
    INFINITY,
    ell_primary,
    enumerate_points,
    group_order,
    reduce_curve,
    scalar_mul,
)
from shascope.galoisrules import theorem5_report
from shascope.liftkit import lift_plan
from shascope.numfield import alpha_trace_direct, alpha_trace_step8, cor6_check, cor7_check
from shascope.poly import Fp
from shascope.torsionq import rational_torsion
from shascope.arith import factorize, primes_below

from divpoly_oracle import build_phi, psi_squared

EX2_LONG = LongModel(0, 1692602, 0, -530052723915, 0)
EX3_LONG = LongModel(1, -1, 0, -332311, -73733731)
EX3_MIN = ShortModel(-5316979, -4724275762)


def test_criterion_1_example2_reproduction():
    t0 = time.monotonic()
    inv = invariants(EX2_LONG)
    want_delta = {
        2: 8, 3: 2, 5: 2, 11: 2, 13: 2, 17: 2, 19: 2, 23: 2, 29: 2, 31: 2,
        37: 3, 8420798017: 1,
    }
    assert dict(factorize(inv.delta).factors) == want_delta
    rep = theorem5_report(EX2_LONG)
    assert rep.exceptional == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 8420798017)
    assert rep.smallest_full == 41
    assert time.monotonic() - t0 < 60


def test_criterion_2_example3_reproduction():
    t0 = time.monotonic()
    s = to_short(EX3_LONG)
    assert s == ShortModel(-430675299, -3443997030498)
    m, _ = minimize_short(s)
    assert m == EX3_MIN
    assert m.delta_prime() == 2**15 * 23**10
    rep = theorem5_report(EX3_LONG, scan_bound=100)
    assert rep.exceptional == (2, 3, 5, 7, 13, 23)
    # 23 is potentially good with Phi-order 6, but at ell = p = 23 Phi_23
    # does not describe inertia on E[23], so chain b cannot use its q = 3
    assert [v.ell for v in rep.verdicts if not v.full] == [2, 3, 7, 23]
    assert time.monotonic() - t0 < 5


def test_criterion_3_example4_reproduction():
    curve = reduce_curve(EX3_MIN, 7)
    assert (curve.A, curve.B) == (4, 4)
    pts = enumerate_points(curve)
    assert len(pts) == 10 and pts[0] is INFINITY
    # {O, (0,+-2), (1,+-3), (3,+-1), (-3,0), (-2,+-3)} with residues mod 7
    assert set(pts[1:]) == {
        (0, 2), (0, 5), (1, 3), (1, 4), (3, 1), (3, 6), (4, 0), (5, 3), (5, 4),
    }
    prim = ell_primary(curve, 5)
    assert prim.cyclic
    assert prim.points_by_order[5] == [(1, 3), (1, 4), (5, 3), (5, 4)]
    plan = lift_plan(EX3_MIN, 7, 5)
    assert plan.m == 2 and plan.y_squared == 9
    a, b = plan.bezout
    assert (a, b) == (3, -1) and a * plan.m + 5 * b == 1
    # certified p-adic root of the cubic congruent to 1 mod 7
    assert plan.target_x == 1
    cert = plan.hensel
    assert cert.x_cert % 7 == 1
    assert cert.val_h is None or cert.val_h > 2 * cert.val_dh


def test_criterion_4_symbolic_identity_suite():
    t0 = time.monotonic()
    sym = symbolic_table()
    # degree / leading / sub-leading shape up to n = 24
    assert all(check_lemma5(sym, n) for n in range(1, 25))
    # f*phi - g*psi = delta' identically
    assert verify_eq46(sym)
    # sub-leading coefficient of f_n vanishes, n <= 12
    for n in range(2, 13):
        d = sym.expected_degree(n)
        assert not sym.f(n).coeff(d - 1)
    # leading terms of the exact-order quotients at (ell, n) = (3,2), (5,2)
    for ell in (3, 5):
        g = quotient_g(sym, ell, 2)
        assert g.degree() == (ell**4 - ell**2) // 2
        assert g.lc() == sym.ring.from_int(ell)
        assert not g.coeff(g.degree() - 1)
    # coefficient -lam*m^2 of X^(m^2-1) in Phi_m, m <= 11, symbolically:
    # Phi_m = build_phi(sym, m, 0) - lam*(Psi'_m)^2, so Phi_m is monic with that
    # coefficient iff build_phi(sym, m, 0) is monic with no X^(m^2-1) term and
    # (Psi'_m)^2 has X^(m^2-1) coefficient m^2
    for m in range(2, 12):
        phi0 = build_phi(sym, m, 0)
        assert phi0.lc() == sym.ring.from_int(1)
        assert not phi0.coeff(m * m - 1)
        assert psi_squared(sym, m).coeff(m * m - 1) == sym.ring.from_int(m * m)
    # zero sub-leading coefficient (zero trace) on three desk curves
    desk = (ShortModel(1, 1), ShortModel(-2, 3), ShortModel(0, 1))
    for model in desk:
        for ell in (5, 7, 11, 13):
            assert cor6_check(model, ell, 1)
        assert cor6_check(model, 5, 2)
    # Phi coefficient rule fully symbolically for ell in {3, 5, 7}
    for ell in (3, 5, 7):
        assert cor7_check(None, ell)
    assert time.monotonic() - t0 < 120


def test_criterion_5_oracle_equivalence():
    model = EX3_MIN
    dp = model.delta_prime()
    mismatches = 0
    for p in primes_below(200):
        if p < 5 or dp % p == 0:
            continue
        curve = reduce_curve(model, p)
        table = DivisionTable(Fp(p), curve.A, curve.B)
        for pt in enumerate_points(curve):
            if pt is INFINITY:
                continue
            for n in range(1, 13):
                lhs = torsion_test(table, pt[0], pt[1], n)
                rhs = scalar_mul(curve, n, pt) is INFINITY
                mismatches += lhs != rhs
    assert mismatches == 0


def test_criterion_6_torsion_suite():
    fixtures = {
        ShortModel(0, 1): ("Z/6Z", 6),
        # (2,4) is on the curve and [2](2,4) = (0,0), so (2,4) has order 4;
        # 0 is the only rational root of x^3 + 4x, so the group is cyclic.
        ShortModel(4, 0): ("Z/4Z", 4),
        EX3_MIN: ("trivial", 1),
        to_short(EX2_LONG): ("Z/2Z", 2),
    }
    for model, (structure, order) in fixtures.items():
        t = rational_torsion(model)
        assert t.structure == structure, (model, t.structure)
        assert t.order == order
        # Torsion injects into E~(F_p) at good p >= 5, so the order divides
        # every #E~(F_p); on these fixtures the gcd is attained exactly.
        m, _ = minimize_short(model)
        bound = 0
        for p in primes_below(200):
            if p >= 5 and m.delta_prime() % p:
                bound = gcd(bound, group_order(reduce_curve(m, p)))
        assert order == bound, (model, order, bound)


def test_criterion_7_alpha_trace_consistency():
    t0 = time.monotonic()
    for model in (ShortModel(1, 1), ShortModel(-2, 3)):
        direct = alpha_trace_direct(model, 5, 2)
        pred = alpha_trace_step8(model, 5)
        assert pred == direct.S
        assert direct.S == 0  # proven for every curve; see alpha_trace_direct
    assert time.monotonic() - t0 < 60


def test_criterion_8_cli_determinism():
    fixtures = [
        ["exceptional", "--curve", "-5316979,-4724275762", "--scan-bound", "100"],
        ["ffgroup", "--p", "7", "--ell", "5", "--curve", "-5316979,-4724275762"],
        ["lift", "--p", "7", "--ell", "5", "--curve", "-5316979,-4724275762"],
        ["invariants", "--curve", "0,1692602,0,-530052723915,0"],
        ["divpoly", "--n", "1", "--symbolic"],
    ]
    for cmd in fixtures:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "shascope.cli", *cmd],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0]
        json.loads(runs[0])
