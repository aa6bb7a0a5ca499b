"""Tests of the benchmark itself: corrupted outputs fail, counts repeat.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from shascope.errors import BudgetError  # noqa: E402

SURVEY, FPGROUPS, DIVPOLY = (workloads.WORKLOADS[n] for n in ("survey", "fpgroups", "divpoly"))


def first(workload, pred, seed=1):
    for block in workload.blocks(seed):
        for item in block:
            if pred(item):
                return item


class Corrupting:
    """The workload with `corrupt` applied to every op's output."""

    def __init__(self, workload, corrupt):
        self.workload, self.corrupt = workload, corrupt
        self.name = workload.name

    def run(self, item):
        return self.corrupt(self.workload.run(item))

    def check(self, item, out):
        return self.workload.check(item, out)


def failures_of(workload, item, corrupt=lambda out: out):
    loop = run.Loop(Corrupting(workload, corrupt))
    loop.run_op(0, item)
    assert loop.attempted == 1
    assert len(loop.latencies) + len(loop.failures) == 1
    return loop.failures


def _json_edit(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


# -- survey ------------------------------------------------------------------


@pytest.fixture(scope="module")
def survey_op():
    item = first(SURVEY, lambda it: it.known == workloads.EXAMPLE3_EXCEPTIONAL)
    return item, SURVEY.run(item)


def test_survey_clean_op_passes(survey_op):
    item, out = survey_op
    assert SURVEY.check(item, out) == []
    assert failures_of(SURVEY, item) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda out: replace(out, exceptional_json=_json_edit(out.exceptional_json, lambda d: d["exceptional_set"].remove(13))),
        lambda out: replace(out, exceptional_json="not json"),
        lambda out: replace(out, exceptional_code=3),
        lambda out: replace(out, torsion=replace(out.torsion, order=7 * out.torsion.order)),
        lambda out: replace(out, reports=out.reports[:-1]),
        lambda out: replace(out, u=out.u + 1),
    ],
    ids=["exceptional-set", "stdout", "exit-code", "torsion-order", "bad-primes", "minimal-model"],
)
def test_survey_corruption_is_a_failure(survey_op, corrupt):
    item, out = survey_op
    assert SURVEY.check(item, corrupt(copy.copy(out)))
    assert len(failures_of(SURVEY, item, corrupt)) == 1


def test_raising_op_is_a_failure(survey_op):
    def budget(out):
        raise BudgetError("incomplete factorization")

    item, _ = survey_op
    fails = failures_of(SURVEY, item, budget)
    assert len(fails) == 1 and "BudgetError" in fails[0]


# -- fpgroups -----------------------------------------------------------------


@pytest.fixture(scope="module")
def fp_op():
    item = first(FPGROUPS, lambda it: it.p < 200 and it.order % it.ell == 0)
    return item, FPGROUPS.run(item)


def _edit_group(edit):
    def corrupt(out):
        (code_g, text_g), lift = out
        return (code_g, _json_edit(text_g, edit)), lift

    return corrupt


def _edit_lift(edit):
    def corrupt(out):
        group, (code_l, text_l) = out
        return group, (code_l, _json_edit(text_l, edit))

    return corrupt


def _move_point(doc):
    pts = next(iter(doc["points_by_order"].values()))
    pts[0] = [pts[0][0], (pts[0][1] + 1) % doc["p"]]


def test_fpgroups_clean_op_passes(fp_op):
    item, out = fp_op
    assert FPGROUPS.check(item, out) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        _edit_group(lambda d: d.update(structure=[d["structure"][0], d["structure"][1] + 1])),
        _edit_group(lambda d: d.update(order=d["order"] + 1)),
        _edit_group(_move_point),
        _edit_lift(lambda d: d.update(bezout=[d["bezout"][0] + 1, d["bezout"][1]])),
        _edit_lift(lambda d: d["hensel"].update(val_h=0, val_dh=1)),
        _edit_lift(lambda d: d["hensel"].update(x_cert=d["hensel"]["x_cert"] + 1)),
    ],
    ids=["structure", "order", "point", "bezout", "hensel-inequality", "hensel-root"],
)
def test_fpgroups_corruption_is_a_failure(fp_op, corrupt):
    item, out = fp_op
    assert FPGROUPS.check(item, corrupt(out))
    assert len(failures_of(FPGROUPS, item, corrupt)) == 1


# -- divpoly ------------------------------------------------------------------


@pytest.fixture(scope="module")
def fp_oracle_op():
    item = first(DIVPOLY, lambda it: it.kind == "fp")
    return item, DIVPOLY.run(item)


def test_divpoly_clean_op_passes(fp_oracle_op):
    assert DIVPOLY.check(*fp_oracle_op) == []


def test_divpoly_oracle_disagreement_is_a_failure(fp_oracle_op):
    item, _ = fp_oracle_op

    def flip(out):
        curve, pts, by_test, by_mul = out
        by_test = [row[:] for row in by_test]
        by_test[0][0] = not by_test[0][0]
        return curve, pts, by_test, by_mul

    assert len(failures_of(DIVPOLY, item, flip)) == 1


def test_divpoly_lemma5_and_trace_mismatch_are_failures():
    zz = first(DIVPOLY, lambda it: it.kind == "zz")
    table, f, cor6 = DIVPOLY.run(zz)
    assert DIVPOLY.check(zz, (table, f, cor6)) == []
    assert DIVPOLY.check(zz, (table, f, [True, False, True]))
    qq = workloads.DivInput("qq", 1, 1)
    direct, step8, cor7 = DIVPOLY.run(qq)
    assert DIVPOLY.check(qq, (direct, step8, cor7)) == []
    assert DIVPOLY.check(qq, (direct, [step8[0] + 1, step8[1]], cor7))
    assert DIVPOLY.check(qq, (direct, step8, [True, False]))


# -- tracing ------------------------------------------------------------------


def test_tracer_wraps_every_binding_site():
    targets = tracing.Tracer.targets()
    originals = {id(t[3]) for t in targets}
    modules = [m for n, m in sys.modules.items() if n == "shascope" or n.startswith("shascope.")]
    bound = [(m, a) for m in modules for a, v in vars(m).items() if id(v) in originals]
    assert len(bound) > len(targets)  # `from .x import f` sites exist
    t = tracing.Tracer()
    t.install()
    try:
        for mod, attr in bound:
            assert id(getattr(mod, attr)) not in originals, f"{mod.__name__}.{attr} not wrapped"
        for _, owner, attr, original in targets:
            if isinstance(owner, type):
                assert owner.__dict__[attr] is not original
    finally:
        t.uninstall()
    for _, owner, attr, original in targets:
        if isinstance(owner, type):
            assert owner.__dict__[attr] is original
    assert all(id(getattr(m, a)) in originals for m, a in bound)


class Tiny:
    """A cheap workload for trace tests: one op of each workload."""

    name = "tiny"
    OWNER = {workloads.SurveyInput: SURVEY, workloads.FpInput: FPGROUPS, workloads.DivInput: DIVPOLY}

    def blocks(self, seed):
        while True:
            yield [
                first(SURVEY, lambda it: it.known == workloads.EXAMPLE3_EXCEPTIONAL, seed),
                first(FPGROUPS, lambda it: it.p < 200, seed),
                first(DIVPOLY, lambda it: it.kind == "zz", seed),
            ]

    def run(self, item):
        return self.OWNER[type(item)].run(item)

    def check(self, item, out):
        return self.OWNER[type(item)].check(item, out)


EXACT = ("calls_per_op", "computed_per_op", "coeff_products_per_op", "repeat_ratio", "max_degree")


def test_traced_counts_repeat_exactly(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "measure_import_ms", lambda: 1.0)
    first_run, extra, loops = run.run_traced(Tiny(), 5, 0)
    second_run, _, _ = run.run_traced(Tiny(), 5, 0)
    assert all(not loop.failures for loop in loops)
    exact = {k: v for k, v in first_run.items() if k.endswith(EXACT)}
    assert exact == {k: second_run[k] for k in exact}
    assert exact["arith.factorize.calls_per_op"] > 0
    assert exact["poly.mul.ZZ.coeff_products_per_op"] > 0
    assert exact["divpoly.f.computed_per_op"] > 0
    assert first_run["ffcurve.point_order.self_ms_per_op"] > 0
    lines = (tmp_path / "tiny.spans.jsonl").read_text().splitlines()
    assert len(lines) == extra["spans_written"] + 1
    names = json.loads(lines[0])["names"]
    spans = [json.loads(line) for line in lines[1:]]
    # every parent is an earlier span that encloses its child
    for name, start, end, parent, op in spans:
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == op
    assert "cli.main" in names and "divpoly.f" in names


# -- run.py as a command --------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([1.0] * 10) == (100.0, 1.0)


def test_host_slowdown_cancels_and_program_slowdown_shows():
    fast, slow = 0.002, 0.004
    refs = [fast] * 30 + [slow] * 30  # the host halves its speed at op 30
    k = refclock.scales(refs, window=3)
    steady = [t * s for t, s in zip([0.1] * 30 + [0.2] * 30, k)]
    far = steady[:27] + steady[34:]  # ops whose window lies on one side of the step
    assert max(far) == pytest.approx(min(far)) == pytest.approx(0.1 * refclock.NOMINAL_S / fast)
    slower = [t * s for t, s in zip([0.1] * 30 + [0.3] * 30, k)]  # the op itself got slower
    assert slower[-1] == pytest.approx(1.5 * steady[-1])


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, run.END_TO_END_UNITS[n]) for n in run.RESULT_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_source_tree(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "survey", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
