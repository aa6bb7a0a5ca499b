import random

import pytest

from shascope import cli, ffcurve
from shascope.arith import factorize, is_prime, padic_val
from shascope.curves import ShortModel
from shascope.errors import BadReductionError, BudgetError, DomainError, SingularCubicError
from shascope.ffcurve import (
    INFINITY,
    FpCurve,
    add,
    ell_primary,
    enumerate_points,
    group_order,
    group_structure,
    neg,
    point_order,
    reduce_curve,
    scalar_mul,
)

EX3_MIN = ShortModel(-5316979, -4724275762)


def brute_points(p, A, B):
    pts = [INFINITY]
    for x in range(p):
        for y in range(p):
            if (y * y - x**3 - A * x - B) % p == 0:
                pts.append((x, y))
    return pts


def test_example4_points():
    c = reduce_curve(EX3_MIN, 7)
    assert (c.A, c.B) == (4, 4)
    pts = enumerate_points(c)
    assert len(pts) == 10
    assert pts[0] is INFINITY
    affine = set(pts[1:])
    assert affine == {(0, 2), (0, 5), (1, 3), (1, 4), (3, 1), (3, 6), (4, 0), (5, 3), (5, 4)}


def test_group_order_vs_brute_force():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for A, B in ((1, 1), (2, 3), (0, 1)):
            if (4 * A**3 + 27 * B**2) % p == 0:
                continue
            c = FpCurve(p, A, B)
            assert group_order(c) == len(brute_points(p, A, B))
    # y^2 = x^3 + 1 is supersingular (#E = p + 1) at p = 2 mod 3 only
    assert group_order(FpCurve(11, 0, 1)) == 12
    assert group_order(FpCurve(13, 0, 1)) != 14


def test_group_law_against_brute_force_cayley():
    # associativity + closure spot-check on F_13, y^2 = x^3 + 2x + 3
    c = FpCurve(13, 2, 3)
    pts = enumerate_points(c)
    for P in pts:
        assert add(c, P, INFINITY) == P
        assert add(c, P, neg(c, P)) is INFINITY
        for Q in pts:
            R = add(c, P, Q)
            assert R is INFINITY or c.on_curve(R)
            assert add(c, Q, P) == R
    for P in pts[:5]:
        for Q in pts[:5]:
            for R in pts[:5]:
                assert add(c, add(c, P, Q), R) == add(c, P, add(c, Q, R))


def test_scalar_mul_matches_repeated_add(monkeypatch):
    # y^2 = x^3 + 2x + 3 over F_13: 18 points, (12, 0) of order 2
    c = FpCurve(13, 2, 3)
    pts = enumerate_points(c)
    assert (12, 0) in pts
    for P in pts:
        multiples = [INFINITY]
        for _ in range(30):
            multiples.append(add(c, multiples[-1], P))
        for k in range(-30, 31):
            want = multiples[k] if k >= 0 else neg(c, multiples[-k])
            assert scalar_mul(c, k, P) == want, (P, k)
    # one doubling per bit below the top one, one addition per set bit
    calls = []

    def counted(curve, P, Q):
        calls.append(1)
        return add(curve, P, Q)

    monkeypatch.setattr(ffcurve, "add", counted)
    for k in range(1, 31):
        calls.clear()
        scalar_mul(c, k, (0, 4))
        assert len(calls) == k.bit_length() - 1 + k.bit_count(), k


def test_point_order_divides_group_order():
    c = FpCurve(23, 1, 1)
    N = group_order(c)
    for P in enumerate_points(c):
        o = point_order(c, P)
        assert N % o == 0
        assert scalar_mul(c, o, P) is INFINITY


def _order(c, P, N):
    """Order of P, sharing no code with the Sylow walk: N·P = O for N = #E,
    and the order is what is left of N after dividing out each prime q while
    (n/q)·P stays O."""
    assert scalar_mul(c, N, P) is INFINITY
    n = N
    for q in factorize(N).primes():
        while n % q == 0 and scalar_mul(c, n // q, P) is INFINITY:
            n //= q
    return n


def test_point_order_matches_repeated_addition():
    # oracle: add P to itself until the sum is O
    for A, B in ((1, 1), (3, 2), (0, 1), (-1, 0)):
        for p in range(5, 110):
            if not is_prime(p) or (4 * A**3 + 27 * B**2) % p == 0:
                continue
            c = FpCurve(p, A % p, B % p)
            for P in enumerate_points(c):
                o, T = 1, P
                while T is not INFINITY:
                    o, T = o + 1, add(c, T, P)
                assert point_order(c, P) == o, (A, B, p, P)


def test_group_structure_weil_pairing_constraint():
    for p in (5, 7, 11, 13, 17):
        for A, B in ((1, 1), (3, 2)):
            if (4 * A**3 + 27 * B**2) % p == 0:
                continue
            c = FpCurve(p, A, B)
            st = group_structure(c)
            assert st.n1 * st.n2 == st.order
            assert st.n2 % st.n1 == 0
            assert (p - 1) % st.n1 == 0  # Weil pairing forces n1 | p - 1


def test_ell_primary_example4():
    c = reduce_curve(EX3_MIN, 7)
    prim = ell_primary(c, 5)
    assert prim.order == 5 and prim.cyclic
    assert prim.points_by_order[5] == [(1, 3), (1, 4), (5, 3), (5, 4)]


def test_bad_reduction_raises():
    cases = [
        (ShortModel(1, 1), 31, BadReductionError, "bad reduction at 31"),
        (ShortModel(0, 1), 9, DomainError, "9 is not prime"),
        (ShortModel(-3, 2), 7, SingularCubicError, "singular cubic (node, c4=144)"),
        (ShortModel(0, 0), 7, SingularCubicError, "singular cubic (cusp, c4=0)"),
        (ShortModel(0, 0), 9, DomainError, "9 is not prime"),  # primality is tested before singularity
    ]
    for model, p, error, message in cases:
        with pytest.raises(DomainError) as info:
            reduce_curve(model, p)
        assert (type(info.value), str(info.value)) == (error, message)


def test_small_p_rejected():
    with pytest.raises(DomainError):
        FpCurve(3, 1, 1)


def test_order_ceiling_stops_every_count_and_walk():
    curve = FpCurve(1000003, 1, 1)
    calls = [
        group_order,
        enumerate_points,
        group_structure,
        lambda c: ell_primary(c, 3),
    ]
    for call in calls:
        with pytest.raises(BudgetError, match="ceiling exceeded: p=1000003 > 1000000"):
            call(curve)


def test_squares_table_is_built_only_for_a_prime_p():
    # the squares table tests n with is_prime, after the ceiling: every composite is refused
    for n in range(5, 2000):
        if 31 % n == 0:  # 4 + 27 = 31: (1,1) is singular mod 31
            continue
        curve = FpCurve(n, 1, 1)
        if is_prime(n):
            group_order(curve)  # Hasse-checked
        else:
            with pytest.raises(DomainError, match=f"^{n} is not prime$"):
                group_order(curve)
    # the ceiling is checked before the table is built
    with pytest.raises(BudgetError, match="ceiling exceeded: p=1000002 > 1000000"):
        group_order(FpCurve(1000002, 1, 1))


def test_count_matches_a_sum_over_every_x():
    # oracle: 1 + sum over all x of #{y : y^2 = x^3 + Ax + B}, from a table of
    # squares mod p; A = 0 and B = 0 (b = 0 reads R[0]) next to seeded (A, B)
    rng = random.Random(20)
    for p in range(5, 700):
        if not is_prime(p):
            continue
        roots = [0] * p
        for y in range(p):
            roots[y * y % p] += 1
        curves = [(0, rng.randrange(1, p)), (rng.randrange(1, p), 0)]
        curves += [(rng.randrange(1, p), p * rng.randrange(-9, 9))]
        curves += [(rng.randrange(-p * p, p * p), rng.randrange(-p * p, p * p)) for _ in range(3)]
        for A, B in curves:
            if (4 * A**3 + 27 * B**2) % p == 0:
                continue
            want = 1 + sum(roots[(x**3 + A * x + B) % p] for x in range(p))
            assert group_order(FpCurve(p, A, B)) == want, (p, A, B)


def test_each_sylow_subgroup_is_walked_once_per_curve(capsys, monkeypatch):
    walks = []
    affine_points = ffcurve._affine_points
    monkeypatch.setattr(ffcurve, "_affine_points", lambda c: walks.append(c) or affine_points(c))
    cases = ((13, -1, 0, 2), (421, 1, 1, 5), (1051, 2, 3, 2), (10007, 1, 1, 3), (15061, -43, 166, 3))
    for p, A, B, ell in cases:
        primes = factorize(group_order(FpCurve(p, A % p, B % p))).primes()
        assert ell in primes
        walks.clear()
        assert cli.main(["ffgroup", "--p", str(p), "--ell", str(ell), "--curve", f"{A},{B}"]) == 0
        assert capsys.readouterr().out
        assert len(walks) == len(primes), (p, A, B)
        # group_structure, then ell_primary, on one curve; ell_primary alone on a fresh one
        walks.clear()
        c = FpCurve(p, A % p, B % p)
        group_structure(c)
        assert ell_primary(c, ell) == ell_primary(FpCurve(p, A % p, B % p), ell)
        assert len(walks) == len(primes) + 1, (p, A, B)


def test_ell_primary_makes_no_addition_when_ell_does_not_divide_the_order(monkeypatch):
    # v_3(#E) = 0 on both: the 3-Sylow subgroup is {O}, known from the count
    for p, A, B in ((999983, 1, 1), (9001, 5, 7)):
        c = FpCurve(p, A, B)
        group_structure(c)
        assert padic_val(group_order(c), 3) == 0
        calls = []
        monkeypatch.setattr(ffcurve, "add", lambda *args: calls.append(1) or add(*args))
        assert ell_primary(c, 3) == ffcurve.EllPrimary(3, 1, 0, 0, True, {})
        monkeypatch.undo()
        assert calls == [], (p, A, B)


def test_ell_primary_matches_point_order_oracle():
    non_cyclic = 0
    for A, B in ((1, 1), (3, 2), (0, 1), (-1, 0)):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            if (4 * A**3 + 27 * B**2) % p == 0:
                continue
            c = FpCurve(p, A % p, B % p)
            st = group_structure(c)
            for ell in (2, 3, 5, 7):
                prim = ell_primary(c, ell)
                want = {}
                pts = enumerate_points(c)
                for P in pts[1:]:
                    o = _order(c, P, len(pts))
                    if o > 1 and ell ** (o.bit_length()) % o == 0:  # o is a power of ell
                        want.setdefault(o, []).append(P)
                assert prim.points_by_order == want, (A, B, p, ell)
                e1 = e2 = 0
                while st.n1 % ell ** (e1 + 1) == 0:
                    e1 += 1
                while st.n2 % ell ** (e2 + 1) == 0:
                    e2 += 1
                assert (prim.e1, prim.e2) == (e1, e2), (A, B, p, ell)
                assert prim.order == ell ** (e1 + e2) and prim.cyclic == (e1 == 0)
                non_cyclic += not prim.cyclic
    assert non_cyclic > 0  # the sweep reaches Z/ell x Z/ell^k parts


def _brute_orders(c):
    """Every point, in enumeration order, with its order."""
    pts = enumerate_points(c)
    return pts, [_order(c, P, len(pts)) for P in pts]


def _assert_structure_oracle(c, st, brute=None):
    """Brute force: N is the number of points, the exponent n2 is the largest
    point order and n1 = N/n2. The generators must be a basis: gen2 of order
    n2 and, when n1 > 1, gen1 of order n1 with no nonzero multiple in <gen2>."""
    pts, orders = brute or _brute_orders(c)
    N, n2 = len(pts), max(orders)
    n1 = N // n2
    assert (st.order, st.n1, st.n2) == (N, n1, n2), c
    order = dict(zip(pts, orders))
    gen2, *rest = st.generators
    assert order[gen2] == n2, c
    if n1 == 1:
        assert rest == [], c
        return
    (gen1,) = rest
    assert order[gen1] == n1, c
    sub, T = set(), INFINITY
    for _ in range(n2):
        sub.add(T)
        T = add(c, T, gen2)
    T = gen1
    for _ in range(1, n1):
        assert T not in sub, c
        T = add(c, T, gen1)


def test_group_structure_matches_brute_force_oracle():
    non_cyclic = 0
    for A, B in ((1, 1), (3, 2), (0, 1), (-1, 0), (-7, 6), (2, -5)):
        for p in range(5, 200):
            if not is_prime(p) or (4 * A**3 + 27 * B**2) % p == 0:
                continue
            c = FpCurve(p, A % p, B % p)
            st = group_structure(c)
            _assert_structure_oracle(c, st)
            non_cyclic += st.n1 > 1
    assert non_cyclic > 0  # the sweep reaches Z/n1 x Z/n2 with n1 > 1


def test_certificate_matches_brute_force_at_mid_p():
    # non-cyclic groups at p in [10^4, 3*10^4]: Z/4 x Z/2504 (p = 1 mod 8),
    # Z/6 x Z/2478 (two primes divide n1) and Z/2 x Z/8192 (a deep 2-part)
    for A, B, p in ((-1, 0, 10009), (-43, 166, 15061), (-7, 6, 16433)):
        c = FpCurve(p, A % p, B % p)
        brute = _brute_orders(c)
        st = group_structure(c)
        assert st.n1 > 1
        _assert_structure_oracle(c, st, brute)
        for ell in (2, 3):
            want = {}
            for P, o in zip(*brute):
                if o > 1 and ell ** o.bit_length() % o == 0:  # o is a power of ell
                    want.setdefault(o, []).append(P)
            prim = ell_primary(c, ell)
            assert prim.points_by_order == want, (A, B, p, ell)
            assert (prim.e1, prim.e2) == (padic_val(st.n1, ell), padic_val(st.n2, ell)), (A, B, p, ell)
