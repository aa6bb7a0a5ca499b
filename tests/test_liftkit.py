from fractions import Fraction

import pytest

from shascope.curves import ShortModel
from shascope.errors import DomainError
from shascope.ffcurve import add, neg, reduce_curve, scalar_mul, enumerate_points
from shascope.liftkit import lift_plan

EX3_MIN = ShortModel(-5316979, -4724275762)


def test_lift_plan_example4():
    plan = lift_plan(EX3_MIN, 7, 5)
    assert (plan.n, plan.m) == (1, 2)
    assert plan.generator == (1, 3)
    assert plan.y_lift == 3 and plan.y_squared == 9
    assert plan.bezout == (3, -1)
    assert 2 * 3 + 5 * (-1) == 1
    assert plan.target_x == 1
    # the cubic is X^3 + AX + (B - 9)
    assert plan.cubic == (
        Fraction(-4724275762 - 9),
        Fraction(-5316979),
        Fraction(0),
        Fraction(1),
    )
    cert = plan.hensel
    assert cert is not None
    # the naive simple-root test fails here: the cubic reduces to
    # (X-1)^2 (X-5) mod 7, so the certificate needs one more digit
    assert not cert.simple_mod_p
    assert cert.depth == 2 and cert.x_cert == 36
    assert cert.x_cert % 7 == plan.target_x
    assert cert.val_h > 2 * cert.val_dh  # strong Hensel inequality


def test_lift_cubic_double_root_mod_p():
    plan = lift_plan(EX3_MIN, 7, 5)
    h = [int(c) for c in plan.cubic]
    ev = lambda x: (h[0] + h[1] * x + h[3] * x**3) % 7
    roots = [x for x in range(7) if ev(x) == 0]
    assert sorted(roots) == [1, 5]
    # derivative vanishes at the double root
    dh = lambda x: (h[1] + 3 * x * x) % 7
    assert dh(1) == 0 and dh(5) != 0


def test_lift_on_an_exact_multiple_root():
    # y^2 = x^3 + 1 at p = 13: the generator (0, 1) makes the lift cubic X^3,
    # whose root 0 is exact and triple, so h and h' both vanish there
    plan = lift_plan(ShortModel(0, 1), 13, 3)
    assert plan.generator == (0, 1) and plan.cubic == (0, 0, 0, 1)
    cert = plan.hensel
    assert (cert.x_cert, cert.depth, cert.val_h, cert.val_dh, cert.simple_mod_p) == (0, 1, None, None, False)

def test_trivial_plan_when_ell_absent():
    plan = lift_plan(EX3_MIN, 7, 3)  # 3 does not divide 10
    assert plan.n == 0 and plan.m == 10
    assert plan.generator is None and plan.hensel is None
    a, b = plan.bezout
    assert 10 * a + 3 * b == 1 and 1 <= a < 3


def test_lift_plan_p11():
    # #E(F_11) = 8 for this curve, so the 5-part is trivial
    plan = lift_plan(EX3_MIN, 11, 5)
    assert plan.n == 0 and plan.m == 8


def test_p_above_the_order_ceiling_is_refused_before_its_primality_test(monkeypatch):
    from shascope import liftkit
    from shascope.errors import BudgetError

    def is_prime(n):
        raise AssertionError("primality tested above the ceiling")

    monkeypatch.setattr(liftkit, "is_prime", is_prime)
    p = 2**4423 - 1  # a Mersenne prime: a probable-prime test takes seconds
    with pytest.raises(BudgetError, match=r"ceiling exceeded: p=\d+ > 1000000"):
        lift_plan(ShortModel(1, 1), p, 5)


def test_hensel_depth_budget_exits_3(capsys, monkeypatch):
    # Example 4 (README's lift example) needs depth 2
    from shascope import cli, liftkit
    from shascope.errors import BudgetError

    monkeypatch.setattr(liftkit, "MAX_HENSEL_DEPTH", 1)
    with pytest.raises(BudgetError, match="^Hensel refinement exceeded depth 1$"):
        lift_plan(EX3_MIN, 7, 5)
    code = cli.main(["lift", "--p", "7", "--ell", "5", "--curve", "-5316979,-4724275762"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (3, "", "sha-scope: budget exceeded: Hensel refinement exceeded depth 1\n")


def test_precondition_names_offending_factor():
    with pytest.raises(DomainError, match="delta'"):
        lift_plan(EX3_MIN, 2, 5)
    with pytest.raises(DomainError, match="ell-1"):
        lift_plan(ShortModel(1, 1), 2, 3)  # 2 | ell-1, 2 coprime to delta' = 31
    with pytest.raises(DomainError, match=r"ell\+1"):
        lift_plan(ShortModel(1, 1), 3, 2)  # 3 | 2+1


def test_decomposition_replay_over_fp():
    # [m]*Q - generator lies in [ell]E(F_p) for any Q reducing to the ell-part
    plan = lift_plan(EX3_MIN, 7, 5)
    curve = reduce_curve(EX3_MIN, 7)
    ell_image = {scalar_mul(curve, 5, P) for P in enumerate_points(curve)}
    for Q in enumerate_points(curve):
        mQ = scalar_mul(curve, plan.m * plan.bezout[0], Q)
        # a*m = 1 mod ell: [am]Q - Q in the ell-part kernel complement
        diff = add(curve, mQ, neg(curve, Q))
        assert diff in ell_image
