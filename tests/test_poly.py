import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from shascope.errors import DomainError, InvariantViolation
from shascope.poly import (
    _KARATSUBA_CUTOFF,
    ZAB,
    ZZ,
    ExactPoly,
    Fp,
    MPoly,
)


def P(*ints):
    return ExactPoly.from_ints(ZZ, list(ints))


def test_basic_ring_ops():
    a = P(1, 2, 3)  # 3x^2 + 2x + 1
    b = P(0, 1)  # x
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - a).is_zero()
    assert (a * b).coeffs == (0, 1, 2, 3)
    assert a.degree() == 2 and a.lc() == 3
    assert a.evaluate(2) == 17


def test_zero_degree_convention():
    assert P().degree() == -1
    assert P(0, 0).is_zero()


def test_divmod_and_exact_div():
    a = P(-1, 0, 1)  # x^2 - 1
    b = P(-1, 1)  # x - 1
    q = a.exact_div(b)
    assert q.coeffs == (1, 1)
    with pytest.raises(InvariantViolation):
        P(1, 0, 1).exact_div(b)


def test_derivative():
    a = P(5, 0, 3)
    assert a.derivative().coeffs == (0, 6)


def test_fp_arithmetic():
    F7 = Fp(7)
    a = ExactPoly.from_ints(F7, [6, 1])  # x + 6 = x - 1
    b = ExactPoly.from_ints(F7, [1, 1])
    assert (a * b).coeffs == (6, 0, 1)  # x^2 - 1 mod 7


int_lists = st.lists(st.integers(-(10**6), 10**6), max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 101]),
    a=int_lists,
    b=int_lists,
    low=st.lists(st.integers(-50, 50), max_size=4),
    x=st.integers(-(10**4), 10**4),
)
def test_fp_results_are_zz_results_mod_p(p, a, b, low, x):
    F = Fp(p)

    def mod_p(f):
        return ExactPoly.from_ints(F, f.coeffs)

    za, zb, zd = P(*a), P(*b), P(*low, 1)  # zd is monic over ZZ
    fa, fb, fd = mod_p(za), mod_p(zb), mod_p(zd)
    assert fa + fb == mod_p(za + zb)
    assert fa - fb == mod_p(za - zb)
    assert fa * fb == mod_p(za * zb)
    assert fa.derivative() == mod_p(za.derivative())
    assert fa.evaluate(x) == za.evaluate(x) % p
    zq, zr = za.divmod_exact(zd)
    assert zq * zd + zr == za and zr.degree() < zd.degree()
    fq, fr = fa.divmod_exact(fd)
    assert (fq, fr) == (mod_p(zq), mod_p(zr))
    assert fq * fd + fr == fa and fr.degree() < fd.degree()
    # reduced residues, and no zero (multiple of p) left on top
    for f in (fa + fb, fa * fb, fa.derivative(), fq, fr):
        assert all(0 <= c < p for c in f.coeffs)
        assert f.is_zero() or f.lc() != 0


# The multiply kernel against a naive double loop: signed coefficients up
# to 2^600, lengths from 1 to four times the Karatsuba cutoff in either
# order (so unbalanced shapes are chunked), and squares a * a.


def naive_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


big_ints = st.integers(-(2**600), 2**600) | st.sampled_from([-1, 0, 1])


@st.composite
def sized_lists(draw, elements, most):
    """A list whose length is uniform in 1..most (st.lists favours short ones)."""
    n = draw(st.integers(1, most))
    return draw(st.lists(elements, min_size=n, max_size=n))


kernel_lists = sized_lists(big_ints, 4 * _KARATSUBA_CUTOFF)
# The kernel tests keep their examples but skip shrinking: shrinking lists of
# up to 80 ints of 600 bits takes minutes to report a failure.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(a=kernel_lists, b=kernel_lists, square=st.booleans())
def test_zz_product_matches_naive_double_loop(a, b, square):
    pa = P(*a)
    pb = pa if square else P(*b)
    if pa.is_zero() or pb.is_zero():
        assert (pa * pb).is_zero()
        return
    want = naive_mul(pa.coeffs, pb.coeffs, 0)
    assert (pa * pb).coeffs == tuple(want)
    assert (pb * pa).coeffs == tuple(want)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(
    p=st.sampled_from([2, 3, 101, 1000003, 2**61 - 1]),
    a=kernel_lists,
    b=kernel_lists,
    square=st.booleans(),
)
def test_fp_product_matches_naive_double_loop(p, a, b, square):
    F = Fp(p)
    pa = ExactPoly.from_ints(F, a)
    pb = pa if square else ExactPoly.from_ints(F, b)
    want = naive_mul(pa.coeffs, pb.coeffs, 0) if pa.coeffs and pb.coeffs else []
    prod = pa * pb
    assert prod == ExactPoly.from_ints(F, want)
    assert all(0 <= c < p for c in prod.coeffs)


def test_symbolic_square_matches_product_of_equal_operands():
    # a square takes the doubled cross products of _mul_rows, over Z[A,B]
    # and over the int rows of MPoly
    A, B = MPoly(2, [1]), MPoly(3, [1])
    zero = ZAB.from_int(0)
    # the X^k coefficient has weight 8 - k, as in f_n, so every sum is homogeneous
    f = ExactPoly.make(
        ZAB, [A * A * A * A - 3 * A * B * B, 2 * A * A * B, B * B, 4 * A * B, -(A * A), 5 * B, A, zero, ZAB.from_int(2)]
    )
    g = ExactPoly(ZAB, tuple(MPoly(c.w, c.row) if c else c for c in f.coeffs))
    assert f.coeffs is not g.coeffs
    assert f * f == f * g
    big = MPoly(6 * 3 * _KARATSUBA_CUTOFF, range(1, 3 * _KARATSUBA_CUTOFF))  # a row past the cutoff
    assert mapped_back(big * big) == sparse_mul(mapped_back(big), mapped_back(big))


def test_mpoly_render_and_ops():
    A = MPoly(2, [1])
    B = MPoly(3, [1])
    expr = A * A * A - 2 * B * B
    assert repr(expr) == "A^3 - 2*B^2"
    assert repr(-(A * B)) == "-A*B" and repr(3 * B) == "3*B"
    one = MPoly(0, [1])
    assert repr(one) == "1"
    # A^2 (weight 4) and B (weight 3) are not one weighted element
    with pytest.raises(InvariantViolation):
        A * A - 2 * B


def test_symbolic_poly_multiplication():
    A = MPoly(2, [1])
    pa = ExactPoly.make(ZAB, [A, ZAB.from_int(1)])  # x + A
    sq = pa * pa
    assert repr(sq.coeff(0)) == "A^2"
    assert sq.coeff(1) == 2 * A


# A sparse reference for MPoly: {(i, j): c} for c*A^i*B^j, multiplied and
# added term by term, and rendered and evaluated as the exponent-dict ring did.


def sparse(w, row):
    """The terms of a weighted row, by its documented layout."""
    out = {}
    for s, c in enumerate(row):
        j = w % 2 + 2 * s
        if c:
            out[(w - 3 * j) // 2, j] = c
    return out


def sparse_add(f, g):
    t = dict(f)
    for e, c in g.items():
        t[e] = t.get(e, 0) + c
    return {e: c for e, c in t.items() if c}


def sparse_mul(f, g):
    t = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            t[e] = t.get(e, 0) + c1 * c2
    return {e: c for e, c in t.items() if c}


def sparse_repr(f):
    if not f:
        return "0"
    parts = []
    for e, c in sorted(f.items(), reverse=True):
        mon = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip("AB", e) if k)
        if mon:
            parts.append(f"{c}*{mon}" if abs(c) != 1 else ("-" + mon if c < 0 else mon))
        else:
            parts.append(str(c))
    return " + ".join(parts).replace("+ -", "- ")


def mapped_back(m):
    return sparse(m.w, m.row) if m else {}


@st.composite
def weighted_rows(draw, weight=st.integers(0, 40)):
    w = draw(weight)
    slots = (w - 3 * (w % 2)) // 6 + 1  # j = w%2 + 2s with 3j <= w
    coeff = st.integers(-(10**30), 10**30) | st.sampled_from([-1, 0, 1])
    return w, draw(st.lists(coeff, max_size=slots))


@settings(max_examples=400, deadline=None)
@given(weighted_rows(), weighted_rows(), st.integers(-50, 50), st.integers(-50, 50))
def test_mpoly_product_matches_sparse_reference(x, y, a, b):
    (w1, r1), (w2, r2) = x, y
    f, g = MPoly(w1, r1), MPoly(w2, r2)
    fs, gs = sparse(w1, r1), sparse(w2, r2)
    assert mapped_back(f * g) == sparse_mul(fs, gs)
    assert mapped_back(g * f) == sparse_mul(fs, gs)
    assert mapped_back(f * a) == mapped_back(a * f) == sparse_mul(fs, {(0, 0): a} if a else {})
    assert repr(f) == sparse_repr(fs)
    assert repr(f * g) == sparse_repr(sparse_mul(fs, gs))
    assert f.subst({"A": a, "B": b}) == sum(c * a**i * b**j for (i, j), c in fs.items())
    if f and g and w1 != w2:
        with pytest.raises(InvariantViolation):
            f + g


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda w: st.tuples(weighted_rows(st.just(w)), weighted_rows(st.just(w)))))
def test_mpoly_sum_matches_sparse_reference(pair):
    (w, r1), (_, r2) = pair
    f, g = MPoly(w, r1), MPoly(w, r2)
    fs, gs = sparse(w, r1), sparse(w, r2)
    assert mapped_back(f + g) == sparse_add(fs, gs)
    assert mapped_back(f - g) == sparse_add(fs, {e: -c for e, c in gs.items()})
    assert repr(f - g) == sparse_repr(sparse_add(fs, {e: -c for e, c in gs.items()}))
    assert (f - f) == ZAB.from_int(0) and not (f - f)
    assert (f + g == g + f) and hash(f + g) == hash(g + f)


def test_mpoly_rejects_rows_that_do_not_fit_the_weight():
    with pytest.raises(DomainError):
        MPoly(1, [1])  # no A^i B^j has weight 1
    with pytest.raises(DomainError):
        MPoly(6, [1, 2, 3])  # weight 6 holds A^3 and B^2 only
    assert MPoly(6, [1, 2, 0]) == MPoly(6, [1, 2])


def test_zab_exact_div_by_constants_only():
    f = MPoly(6, [4, -6])
    assert ZAB.exact_div(f, ZAB.from_int(2)) == MPoly(6, [2, -3])
    with pytest.raises(InvariantViolation):
        ZAB.exact_div(f, ZAB.from_int(4))
    with pytest.raises(InvariantViolation):
        ZAB.exact_div(f, MPoly(2, [1]))
    with pytest.raises(InvariantViolation):
        ZAB.exact_div(f, ZAB.from_int(0))
