"""Result records: immutable, copied and pickled whole, and compared by value."""

import copy
import pickle

import pytest

from shascope import arith, curves, ffcurve, galoisrules, liftkit, numfield, torsionq
from shascope.divpoly import symbolic_table
from shascope.poly import ZAB, ZZ, ExactPoly, Fp

EX3 = curves.ShortModel(-5316979, -4724275762)
E11 = curves.ShortModel(1, 1)

# (record, a builder, one of its fields)
RECORDS = [
    ("LongModel", lambda: curves.LongModel(0, 0, 1, -1, 0), "a4"),
    ("ShortModel", lambda: E11, "A"),
    ("Invariants", lambda: curves.invariants(E11), "j"),
    ("ReductionReport", lambda: curves.reduction_report(E11, 31), "kind"),
    ("FpCurve", lambda: ffcurve.reduce_curve(EX3, 7), "p"),
    ("GroupStructure", lambda: ffcurve.group_structure(ffcurve.reduce_curve(EX3, 7)), "order"),
    ("EllPrimary", lambda: ffcurve.ell_primary(ffcurve.reduce_curve(EX3, 7), 5), "cyclic"),
    ("AlphaTraceResult", lambda: numfield.alpha_trace_direct(E11, 5, 1), "S"),
    ("Verdict", lambda: galoisrules.theorem5_report(E11).verdicts[0], "full"),
    ("Theorem5Report", lambda: galoisrules.theorem5_report(E11), "exceptional"),
    ("HenselCertificate", lambda: liftkit.lift_plan(EX3, 7, 5).hensel, "depth"),
    ("LiftPlan", lambda: liftkit.lift_plan(EX3, 7, 5), "generator"),
    ("TorsionGroup", lambda: torsionq.rational_torsion(curves.ShortModel(0, 1)), "order"),
    ("ExactPoly", lambda: ExactPoly.make(ZZ, [1, 2]), "coeffs"),
    ("Factorization", lambda: arith.factorize(360), "unit"),
]


@pytest.mark.parametrize("build, field", [r[1:] for r in RECORDS], ids=[r[0] for r in RECORDS])
def test_fields_cannot_be_assigned(build, field):
    record = build()
    assert type(record).__name__ in {r[0] for r in RECORDS}
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert getattr(record, field) == before


@pytest.mark.parametrize("build", [r[1] for r in RECORDS], ids=[r[0] for r in RECORDS])
def test_records_copy_and_pickle(build):
    record = build()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_rings_copy_and_pickle_to_their_singletons():
    # ZZ and ZAB compare by identity, so a copied polynomial must keep the ring itself
    assert copy.deepcopy(ZZ) is ZZ and copy.copy(ZZ) is ZZ
    assert pickle.loads(pickle.dumps(ZAB)) is ZAB and copy.deepcopy(ZAB) is ZAB
    f3 = symbolic_table().f(3)
    g = copy.deepcopy(f3)
    assert g.ring is ZAB
    assert g * g == f3 * f3
    assert pickle.loads(pickle.dumps(f3)) * f3 == f3 * f3


@pytest.mark.parametrize(
    "make, same, others",
    [
        (
            lambda: ExactPoly.make(ZZ, [1, 2]),
            lambda: ExactPoly(ZZ, (1, 2)),
            [ExactPoly.make(ZZ, [1, 3]), ExactPoly.make(Fp(7), [1, 2]), ExactPoly.make(ZZ, [1, 2, 1])],
        ),
        (
            lambda: ffcurve.FpCurve(7, 4, 4),
            lambda: ffcurve.reduce_curve(EX3, 7),
            [ffcurve.FpCurve(11, 4, 4), ffcurve.FpCurve(7, 4, 6), ffcurve.FpCurve(7, 1, 4)],
        ),
        (
            lambda: arith.Factorization(1, ((2, 3), (3, 2), (5, 1))),
            lambda: arith.factorize(360),
            [arith.Factorization(-1, ((2, 3), (3, 2), (5, 1))), arith.Factorization(1, ((2, 3), (3, 2)))],
        ),
    ],
    ids=["ExactPoly", "FpCurve", "Factorization"],
)
def test_behaviour_records_compare_and_hash_by_value(make, same, others):
    a, b = make(), same()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in others:
        assert a != other and not a == other


def test_fp_curve_caches_do_not_enter_equality():
    a, b = ffcurve.FpCurve(7, 4, 4), ffcurve.FpCurve(7, 4, 4)
    assert ffcurve.group_order(a) == 10
    assert a == b and hash(a) == hash(b)


def test_int_times_poly_is_a_type_error():
    # not sequence repetition, as a tuple base would make it
    with pytest.raises(TypeError):
        2 * ExactPoly.make(ZZ, [1, 2])
