import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from shascope import cli, curves, ffcurve, numfield
from shascope.cli import main
from shascope.poly import ZZ, ExactPoly

EX3_MIN = "-5316979,-4724275762"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--curve", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_prime"] == 31
    assert doc["j"] == {"num": 6912, "den": 31}


def test_big_integers_as_strings(capsys):
    a, b = 1692602, -530052723915
    code, out, _ = run_cli(capsys, "invariants", "--curve", f"0,{a},0,{b},0")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["delta"], str)  # exceeds 2^53
    assert int(doc["delta"]) % 8420798017 == 0


class _Int(int):
    pass


class _LoudInt(int):
    def __str__(self):
        return "loud"


@pytest.mark.parametrize(
    "value, line",
    [
        (True, "true"),
        (False, "false"),
        (2**53 - 1, "9007199254740991"),
        (-(2**53 - 1), "-9007199254740991"),
        (2**53, '"9007199254740992"'),
        (-(2**53), '"-9007199254740992"'),
        (_Int(7), "7"),
        (_Int(2**60), '"1152921504606846976"'),
        (_LoudInt(7), "7"),
        (_LoudInt(2**60), '"loud"'),
        (
            (1, [Fraction(2**60 + 1, 3), {"k": (ExactPoly.from_ints(ZZ, (3, 0, -(2**54))), None)}], {5: "s"}),
            '[1,[{"den":3,"num":"1152921504606846977"},{"k":[[3,0,"-18014398509481984"],null]}],{"5":"s"}]',
        ),
    ],
)
def test_emit_bytes_pinned(capsys, value, line):
    # bytes from the isinstance-chain encoder; int subclasses take its path
    cli._emit(value)
    assert capsys.readouterr().out == line + "\n"


def test_exceptional_fixture(capsys):
    code, out, _ = run_cli(capsys, "exceptional", "--curve", EX3_MIN, "--scan-bound", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["exceptional_set"] == [2, 3, 5, 7, 13, 23]


def test_ffgroup_fixture(capsys):
    code, out, _ = run_cli(capsys, "ffgroup", "--p", "7", "--ell", "5", "--curve", EX3_MIN)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 10
    assert doc["cyclic"] is True
    assert doc["points_by_order"]["5"] == [[1, 3], [1, 4], [5, 3], [5, 4]]
    assert out == (
        '{"A":4,"B":4,"cyclic":true,"ell":5,"ell_part_order":5,"order":10,"p":7,'
        '"points_by_order":{"5":[[1,3],[1,4],[5,3],[5,4]]},"structure":[1,10]}\n'
    )
    code, out, _ = run_cli(capsys, "lift", "--p", "7", "--ell", "5", "--curve", EX3_MIN)
    assert code == 0
    # the generator (1, 3) is a double root of the lift cubic mod 7, so the
    # certificate needs a second digit
    assert out == (
        '{"bezout":[3,-1],"cubic":[{"den":1,"num":-4724275771},{"den":1,"num":-5316979},'
        '{"den":1,"num":0},{"den":1,"num":1}],"ell":5,"generator":[1,3],'
        '"hensel":{"depth":2,"simple_mod_p":false,"val_dh":1,"val_h":3,"x_cert":36},'
        '"m":2,"n":1,"p":7,"target_x":1,"y_lift":3,"y_squared":{"den":1,"num":9}}\n'
    )


def test_ffgroup_non_cyclic_fixture(capsys):
    # bytes pinned from the implementation that computed every point's order
    code, out, _ = run_cli(capsys, "ffgroup", "--p", "13", "--ell", "2", "--curve", "-1,0")
    assert code == 0
    assert out == (
        '{"A":12,"B":0,"cyclic":false,"ell":2,"ell_part_order":8,"order":8,"p":13,'
        '"points_by_order":{"2":[[0,0],[1,0],[12,0]],"4":[[5,4],[5,9],[8,6],[8,7]]},'
        '"structure":[2,4]}\n'
    )
    code, out, _ = run_cli(capsys, "ffgroup", "--p", "10007", "--ell", "3", "--curve", "1,1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f5519dedb29faa7c7de883c00f8cf08de4de5d4ec9d2f2e72154aaff18ff4eb1"
    )


def test_ffgroup_work_is_far_below_one_addition_per_point(capsys, monkeypatch):
    # the structure is proven from the count: a loop over the points would
    # make at least one addition per point, about 10^5 here
    calls = []
    add = ffcurve.add
    monkeypatch.setattr(ffcurve, "add", lambda *args: calls.append(1) or add(*args))
    for command in ("ffgroup", "lift"):
        code, out, _ = run_cli(capsys, command, "--p", "100003", "--ell", "3", "--curve", "1,1")
        assert code == 0 and out
    assert 0 < len(calls) < 1000
    # a non-cyclic group at the order ceiling: the generators are sums of Sylow
    # bases, with no walk of their own
    calls.clear()
    code, out, _ = run_cli(capsys, "ffgroup", "--p", "999983", "--ell", "3", "--curve", "-1,0")
    assert code == 0 and json.loads(out)["structure"][0] == 2
    assert 0 < len(calls) < 2000


def test_ffgroup_and_lift_at_the_ceiling(capsys, monkeypatch):
    def enumerate_points(*args, **kwargs):
        raise AssertionError("E(F_p) listed in full")

    monkeypatch.setattr(ffcurve, "enumerate_points", enumerate_points)
    for curve in ("1,1", "-1,0"):
        for command in ("ffgroup", "lift"):
            code, out, _ = run_cli(capsys, command, "--p", "999983", "--ell", "3", "--curve", curve)
            assert code == 0 and json.loads(out)["p"] == 999983
    for command in ("ffgroup", "lift"):
        code, out, err = run_cli(capsys, command, "--p", "1000003", "--ell", "3", "--curve", "1,1")
        assert (code, out) == (3, "")
        assert "ceiling exceeded: p=1000003 > 1000000" in err


def test_lift_non_cyclic_exit_2(capsys):
    code, out, err = run_cli(capsys, "lift", "--p", "13", "--ell", "2", "--curve", "-1,0")
    assert code == 2
    assert out == ""
    assert "2-primary part Z/2 x Z/4 of E(F_13) is not cyclic" in err


def test_divpoly_symbolic_unit(capsys):
    code, out, _ = run_cli(capsys, "divpoly", "--n", "1", "--symbolic")
    assert code == 0
    assert json.loads(out)["f"] == "1"


def test_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "invariants", "--curve", "0,0")
    assert code == 2
    assert err


def test_non_integer_curve_exit_2(capsys):
    code, _, _ = run_cli(capsys, "invariants", "--curve", "1.5,2")
    assert code == 2


def test_reduce_rejects_p_below_2():
    # run in a subprocess with a timeout, so that a loop in p_minimize fails the test;
    # the (0, 0) model checks p_minimize's stop on A = B = 0
    cases = [
        ("1", "1,1", "1 is not prime"),
        ("0", "1,1", "0 is not prime"),
        ("5", "0,0", "singular cubic (cusp, c4=0)"),
    ]
    for p, curve, message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "shascope.cli", "reduce", "--p", p, "--curve", curve],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"sha-scope: {message}\n")


def test_ffgroup_rejects_a_composite_p(capsys):
    # at 1,1 (delta' = 31) the squares table refuses p; at 0,1 and 0,5 p divides delta'
    for p, curve in (("8", "1,1"), ("15", "1,1"), ("9", "1,1"), ("25", "1,1"), ("9", "0,1"), ("25", "0,5")):
        got = run_cli(capsys, "ffgroup", "--p", p, "--curve", curve)
        assert got == (2, "", f"sha-scope: {p} is not prime\n")


def test_usage_error_exit_64(capsys):
    assert main(["invariants"]) == 64
    assert main(["no-such-command"]) == 64
    assert main(["reduce", "--curve", "1,1"]) == 64  # missing --p


def test_lift_fixture(capsys):
    code, out, _ = run_cli(capsys, "lift", "--p", "7", "--ell", "5", "--curve", EX3_MIN)
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2 and doc["bezout"] == [3, -1]
    assert doc["y_squared"] == {"num": 9, "den": 1}


def test_determinism_byte_identical():
    cmds = [
        ["invariants", "--curve", "1,1"],
        ["exceptional", "--curve", EX3_MIN, "--scan-bound", "100"],
        ["ffgroup", "--p", "7", "--ell", "5", "--curve", EX3_MIN],
        ["bad-primes", "--curve", EX3_MIN],
    ]
    for cmd in cmds:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "shascope.cli", *cmd],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        json.loads(runs[0])  # valid JSON


def test_budget_error_exit_3(capsys):
    # degree ceiling on the division-polynomial table
    code, _, err = run_cli(capsys, "divpoly", "--n", "60", "--curve", "1,1")
    assert code == 3
    assert err


def test_top_coefficient_commands_above_the_degree_ceiling(capsys):
    # f_37, f_38 and f_49 are not built whole; these exited 3 at the degree ceiling
    for argv in (
        ("cor-traces", "--ell", "37", "--curve", "1,1"),
        ("cor-traces", "--ell", "7", "--n", "2", "--curve", "1,1"),
        ("verify-identities", "--max-n", "38"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert all(v for k, v in doc.items() if k not in ("ell", "n", "lemma5_max_n")), doc


def test_top_table_and_alpha_budgets_exit_3(capsys, monkeypatch):
    # each refused before any primality test or table, so none can hang
    def is_prime(n):
        raise AssertionError("primality tested above the ceiling")

    monkeypatch.setattr(numfield, "is_prime", is_prime)
    m521 = str(2**521 - 1)
    for argv, message in (
        (("verify-identities", "--max-n", "10001"), "--max-n 10001 exceeds ceiling 10000"),
        (("cor-traces", "--ell", "3", "--n", "513", "--curve", "1,1"),
         "ell^n of up to 1026 bits exceeds ceiling 1024 bits"),
        (("cor-traces", "--ell", str(2**1024 + 1), "--curve", "1,1"),
         "ell^n of up to 1025 bits exceeds ceiling 1024 bits"),
        (("alpha-trace", "--ell", "1009", "--n", "1", "--curve", "1,1"),
         "ell^n = 1009 exceeds ceiling 300"),
        (("alpha-trace", "--ell", "19", "--n", "2", "--curve", "1,1"),
         "ell^n = 361 exceeds ceiling 300"),
        (("alpha-trace", "--ell", m521, "--n", "1", "--curve", "1,1"),
         f"ell^n = {m521} exceeds ceiling 300"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"sha-scope: budget exceeded: {message}\n")


def test_cor_traces_domain_errors_exit_2(capsys):
    for argv, message in (
        (("--n", "0"), "n >= 1 required"),
        (("--n", "-1"), "n >= 1 required"),
        (("--ell", "2"), "odd prime ell required"),  # --ell 4 and 9: test_non_prime_ell_exit_2
    ):
        ell = () if "--ell" in argv else ("--ell", "5")
        got = run_cli(capsys, "cor-traces", *ell, *argv, "--curve", "1,1")
        assert got == (2, "", f"sha-scope: {message}\n")


def test_effort_flag_accepted(capsys):
    code, out, _ = run_cli(capsys, "bad-primes", "--curve", "1,1", "--effort", "5")
    assert code == 0
    assert json.loads(out)["delta_prime_factors"] == {"31": 1}
    assert run_cli(capsys, "exceptional", "--curve", "1,1", "--effort", "5")[0] == 0


def test_factoring_budget_names_the_rho_cofactor(capsys):
    # delta' = 761 * 2094413 * 14374475867: block 0 removes 761, rho at effort 0
    # gives up at once on the rest, and the sweep to 10**6 finds nothing in it
    for command in (("bad-primes",), ("exceptional", "--scan-bound", "50")):
        code, out, err = run_cli(capsys, *command, "--curve", "-806071,962360405", "--effort", "0")
        assert code == 3
        assert out == ""
        assert "unfactored cofactor 30106089124031071" in err
    code, out, _ = run_cli(capsys, "bad-primes", "--curve", "-806071,962360405")
    assert code == 0
    assert json.loads(out)["delta_prime_factors"] == {"761": 1, "2094413": 1, "14374475867": 1}


def test_negative_effort_exit_2(capsys):
    # a negative budget is invalid input, not an exhausted budget (exit 3)
    for command in (("bad-primes",), ("exceptional", "--scan-bound", "50")):
        for curve, effort in (("1,1", "-3"), ("-806071,962360405", "-1")):
            got = run_cli(capsys, *command, "--curve", curve, "--effort", effort)
            assert got == (2, "", f"sha-scope: effort must be >= 0, got {effort}\n")


def test_negative_bounds_exit_2(capsys):
    got = run_cli(capsys, "exceptional", "--curve", "1,1", "--scan-bound", "-5")
    assert got == (2, "", "sha-scope: scan_bound must be >= 0, got -5\n")
    got = run_cli(capsys, "verify-identities", "--max-n", "-3")
    assert got == (2, "", "sha-scope: --max-n must be >= 0, got -3\n")
    # zero is a valid, empty scan
    code, out, _ = run_cli(capsys, "exceptional", "--curve", "1,1", "--scan-bound", "0")
    assert code == 0
    assert json.loads(out) == {
        "exceptional_set": [2, 3, 5, 7, 13, 31],
        "minimized": [1, 1],
        "scan_bound": 0,
        "smallest_full": None,
    }
    code, out, _ = run_cli(capsys, "verify-identities", "--max-n", "0")
    assert code == 0
    assert json.loads(out) == {"cor7": True, "eq46": True, "lemma5": True, "lemma5_max_n": 0}


def test_effort_rejected_where_nothing_is_factored(capsys):
    for argv in (
        ("invariants", "--curve", "1,1"),
        ("reduce", "--p", "7", "--curve", "1,1"),
        ("divpoly", "--n", "3", "--curve", "1,1"),
        ("verify-identities", "--max-n", "3"),
        ("ffgroup", "--p", "7", "--curve", "1,1"),
        ("torsion", "--curve", "1,1"),
        ("cor-traces", "--ell", "5", "--curve", "1,1"),
        ("alpha-trace", "--ell", "5", "--curve", "1,1"),
        ("lift", "--p", "7", "--ell", "5", "--curve", "1,1"),
    ):
        code, out, err = run_cli(capsys, *argv, "--effort", "5")
        assert (code, out) == (64, "")
        assert "unrecognized arguments: --effort=5" in err


def test_non_prime_ell_exit_2(capsys):
    for argv in (
        ("alpha-trace", "--ell", "9"),
        ("alpha-trace", "--ell", "4"),
        ("cor-traces", "--ell", "9"),
        ("cor-traces", "--ell", "4"),
    ):
        code, out, err = run_cli(capsys, *argv, "--curve", "1,1")
        assert (code, out) == (2, "")
        assert "prime" in err


def test_alpha_trace_stdout_pinned(capsys):
    n1 = '{"S":{"den":1,"num":0},"degree":12,"ell":5,"n":1}\n'
    # step 8 predicts the level-2 sum, so only n = 2 has a step8_matches key
    n1_step8 = '{"S":{"den":1,"num":0},"degree":12,"ell":5,"n":1,"step8_prediction":{"den":1,"num":0}}\n'
    n2 = (
        '{"S":{"den":1,"num":0},"degree":300,"ell":5,"n":2,"step8_matches":true,'
        '"step8_prediction":{"den":1,"num":0}}\n'
    )
    for curve in ("1,1", "-2,3"):
        assert run_cli(capsys, "alpha-trace", "--ell", "5", "--n", "1", "--curve", curve) == (0, n1, "")
        got = run_cli(capsys, "alpha-trace", "--ell", "5", "--n", "1", "--step8", "--curve", curve)
        assert got == (0, n1_step8, "")
        got = run_cli(capsys, "alpha-trace", "--ell", "5", "--n", "2", "--step8", "--curve", curve)
        assert got == (0, n2, "")
    # ell in {7, 11, 13} divides neither delta' = -16*31 nor -16*211
    for (ell, n), digest in ALPHA_TRACE_PINS.items():
        for curve in ("1,1", "-2,3"):
            code, out, _ = run_cli(capsys, "alpha-trace", "--ell", str(ell), "--n", str(n), "--curve", curve)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# sha256 of `alpha-trace --ell L --n N` stdout, the same for both curves above
ALPHA_TRACE_PINS = {
    (7, 1): "1686ebf9f2672d983d7486cb777e0f07072ff59742ddd59ee2fa5c0526676d7b",
    (7, 2): "db34a5effb8432fcec2ad4ca2c4778df68950175bec9fd09b0f062083effd5b8",
    (11, 1): "975a48bc433fdc17ff4973ad7e3164f40ecef7f8e62c9deeaf17985f530eef2a",
    (11, 2): "32ab6644e7f81d0a6a8ca5ed1a85f4a0767939f14879797e06dc3fff15a728ac",
    (13, 1): "4c3ecf4a23a0734251db3b9087a5164787437e6f750e9926cf20f7b8fe6be536",
    (13, 2): "7955a9bf7e781195ec61a83d1640a947ba69a4d96ab9d4c660ca588c9d456930",
}


def test_alpha_trace_at_7_2_needs_no_f_49(capsys):
    # deg f_49 = 1200 is above the table's degree ceiling of 700
    code, out, _ = run_cli(capsys, "alpha-trace", "--ell", "7", "--n", "2", "--step8", "--curve", "1,1")
    assert code == 0
    assert '"step8_matches":true' in out
    assert json.loads(out)["degree"] == 1176


POLY_ENGINE_PINS = [
    (("divpoly", "--n", "12", "--curve", "1,1"),
     "039678c1942a7ae685ce230fef0021ca6895116fa069e8616a80a26182383fd7"),
    (("divpoly", "--n", "7", "--symbolic"),
     "e6216fe264218988acb3d7ea38e372eec1bfccc25926b7198b0985b5867d8207"),
    (("verify-identities", "--max-n", "12"),
     "257b02e17f3871065b4ea2993cd8541f258517f27c0acc7184cce97c86258641"),
    (("cor-traces", "--ell", "5", "--curve", "-2,3"),
     "7ea78d1102cab03aa94dd720227ebcfbcdfba6842fafb8e892755787227ae666"),
    (("alpha-trace", "--ell", "5", "--n", "2", "--step8", "--curve", "1,1"),
     "21891bbc6acaed80a86658660071e8a994d2eb0b1459beb2edda6069dffd1ced"),
    (("lift", "--p", "7", "--ell", "5", "--curve", EX3_MIN),
     "1dbd003160d164e796757b482e6f05a19fe26be6804e2a79d755342f67f0054b"),
    # the whole f_37, whose products run the deepest multiply recursion
    (("divpoly", "--n", "37", "--curve", "1000,-777"),
     "15e1c6615a39a002fcad9f23267548d9f82c44050cc12cabf8fac4d014b11e6c"),
    (("divpoly", "--n", "25", "--curve", "-2,3"),
     "062a364c592c256cbdb117b2977472691d0e691ff8f2ec5ad0cd9c113fcb864f"),
]


@pytest.mark.parametrize("argv,digest", POLY_ENGINE_PINS, ids=[argv[0] for argv, _ in POLY_ENGINE_PINS])
def test_poly_engine_stdout_pinned(capsys, argv, digest):
    # bytes pinned from the implementation with per-coefficient Ring adapter
    # calls; a Fraction coefficient that became an int would print 3, not
    # {"den":1,"num":3}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `divpoly --n k --symbolic` for k = 1..16, then cor-traces at
# ell 5 and 7 on two curves; pinned from the sparse Z[A,B] implementation
SYMBOLIC_SWEEP_PINS = [
    (("divpoly", "--n", "1", "--symbolic"),
     "887ff8a39863ad8224c222fc024810c3ac1544c70ad5ce29b846dc822a1b7e7c"),
    (("divpoly", "--n", "2", "--symbolic"),
     "7ec7703defde464c615747d808452cbecadb2433322af63bc95a5f30e803f003"),
    (("divpoly", "--n", "3", "--symbolic"),
     "9f1198b5a13fd5306eaf05d6f140f3a0bfe6d4491596b3ea9b357da51fe1c80d"),
    (("divpoly", "--n", "4", "--symbolic"),
     "99ec36641c7e3009d3e12c6db98acd8c2a5439a5161d261b7362baa42449ab3b"),
    (("divpoly", "--n", "5", "--symbolic"),
     "c9952bcbca2a7fa8f9ff7dad96b7d8127fb988ec568f0aa454ab24b49562cbcd"),
    (("divpoly", "--n", "6", "--symbolic"),
     "552764a2f56ebf2c871c2e70f5a34bf2dfbe62f1da7aa9b2e7c864501c0d6866"),
    (("divpoly", "--n", "7", "--symbolic"),
     "e6216fe264218988acb3d7ea38e372eec1bfccc25926b7198b0985b5867d8207"),
    (("divpoly", "--n", "8", "--symbolic"),
     "8a025d7da56cd11ed8f5ebf7da2d8e4666c4e86d35c8c9a9d19004f57134d915"),
    (("divpoly", "--n", "9", "--symbolic"),
     "e09eb1124a6a72380e623a6dfb1ecb5154349a658968d35e915ee5e0074baefd"),
    (("divpoly", "--n", "10", "--symbolic"),
     "8dbad0517c4370a79edb89ec79a8e3fe655d46dafc6750f06f2c56247b9eeb58"),
    (("divpoly", "--n", "11", "--symbolic"),
     "f997f20f2974717a8ccbc7869af42ded6931ffbf6d09f0b289da20131bf7adbe"),
    (("divpoly", "--n", "12", "--symbolic"),
     "a762a6046fac45e0c0116998f18234062f5245e2f24e9fec5a312c30c30e4f87"),
    (("divpoly", "--n", "13", "--symbolic"),
     "e492e28e7d50796422649a8820e19aec8dfc608ff9a1e7f4dc6bb7377bcefdf0"),
    (("divpoly", "--n", "14", "--symbolic"),
     "d27b0f27fd943016397293fd22c6d9afda71e8c4e2819624bcc371022b66e4f9"),
    (("divpoly", "--n", "15", "--symbolic"),
     "2e178126cbab3952a29533dc438f4ff758a001ffe29f803bbdc47a8d06f23002"),
    (("divpoly", "--n", "16", "--symbolic"),
     "c239c8e3795136900abf0b58a9e487e72b102a017c5c8ba216307629159a903f"),
    (("cor-traces", "--ell", "5", "--curve", "1,1"),
     "7ea78d1102cab03aa94dd720227ebcfbcdfba6842fafb8e892755787227ae666"),
    (("cor-traces", "--ell", "7", "--curve", "1,1"),
     "38a491b25a0555c9796953412a0d1f924032785219d46332182899cb6b8d6bf4"),
    (("cor-traces", "--ell", "5", "--curve", "-2,3"),
     "7ea78d1102cab03aa94dd720227ebcfbcdfba6842fafb8e892755787227ae666"),
    (("cor-traces", "--ell", "7", "--curve", "-2,3"),
     "38a491b25a0555c9796953412a0d1f924032785219d46332182899cb6b8d6bf4"),
]


@pytest.mark.parametrize(
    "argv,digest", SYMBOLIC_SWEEP_PINS, ids=["-".join(argv[:3:2] + argv[4:]) for argv, _ in SYMBOLIC_SWEEP_PINS]
)
def test_symbolic_sweep_stdout_pinned(capsys, argv, digest):
    # verify-identities --max-n 12 is pinned in POLY_ENGINE_PINS above
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (argv, exit code, sha256 of stdout) for the exceptional-prime scan
EXCEPTIONAL_PINS = [
    (("exceptional", "--curve", EX3_MIN), 0,
     "562e6c8cc7b3ba8f7f24e2e9161d31731d595fcd6d0e79105298aeabdb33a2cd"),
    (("exceptional", "--curve", "0,1692602,0,-530052723915,0", "--scan-bound", "1000"), 0,
     "9d47cee8d2f0b943f3e4cb16e469bc7faf58811c8b4d6e41cbf85c15b0a396bc"),
    (("exceptional", "--curve", "1,1"), 0,
     "22c1814e947fb20ca8e0ac77168e1c62cfcd76341b6f08759b1676e391f091f3"),
    (("exceptional", "--curve", "25,875"), 0,
     "08b8fb1e5ee2341a966c4fdfbde538f0a6b83cb621b53b355430282eee723e49"),
    (("exceptional", "--curve", "-66,-106"), 0,
     "2477d9a4ca26f9d52d0393b65547419ca2946f1e575c9b6b8eac77e309eb8fbf"),
    (("exceptional", "--curve", "1,0"), 0,
     "0527d313476e70f3c40e2b882c8fcf87a199ba3bcda7ea9b8aeca6522a30f116"),
]


@pytest.mark.parametrize("argv,code,digest", EXCEPTIONAL_PINS, ids=[argv[2] for argv, *_ in EXCEPTIONAL_PINS])
def test_exceptional_stdout_pinned(capsys, argv, code, digest):
    # bytes pinned before the galoisrules chains lost their selection knob;
    # 25,875 and -66,-106 re-pinned when chain e replaced chain c
    got, out, _ = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# (structure, curve, sha256 of `torsion --curve A,B` stdout): the first curve of
# each of Mazur's 15 groups in tests/test_torsionq.py::mazur_family_curves, and
# the Z/5Z curve whose delta' defeats the factoring budget
TORSION_PINS = [
    ("trivial", "1,1",
     "1217b06d9add9d9546dc8f5567635308b66ba7ae780385d54990cac5f4b9ab4d"),
    ("Z/2Z", "1,0",
     "aea6f3d5709b203160aee4d0a8b2700d6d5a2715b48b54d5e27bc220162ff602"),
    ("Z/3Z", "0,16",
     "90b5d5481af06f21dcc0af3037dbdbf28fd1677c94e28e13c6520f1a520f7021"),
    ("Z/2Z x Z/2Z", "-1,0",
     "37a70c83e43400be66559d687b71b326d8470e27e7a266d1bb47316791e74e87"),
    ("Z/4Z", "-3807,-10206",
     "13e406f340349ed1db9eb91c542112f7b18f1081754782085a3b44d1582af04a"),
    ("Z/5Z", "847577088,111949765410816",
     "01b2812e85ef5b5aa615bf5da565a6ed7c0a6cda371ea8cb9e4d2f1340dcada5"),
    ("Z/6Z", "-21447770112,-180587839094784",
     "ef33722d7442be7faecce6d60c0dca9744ee6047eb5312bd86dc104986d553ce"),
    ("Z/7Z", "-131811309363658752,79444951080688873579216896",
     "d9a9a5f9c29c14534480b2ebbf860b5b798800cd25cced80e9ed3d0cc4dd6031"),
    ("Z/8Z", "-457308483123779296875,2934748163446784019470214843750",
     "e0ae213742719156290e3ccfdcf34288669ef1b0a21ae71646b31aadea35dcbf"),
    ("Z/9Z", "-21594729012303309897203712,169486234851313731731261192641148092416",
     "e088ad1f5eeb5cbf58eb4540b6b669430e55f1632c8b3547eaa2142c68c71458"),
    ("Z/10Z", "-113976747,-403511239386",
     "e4a114a0b042c6df06ce8151837e32317e246f17408474ae4ecd963c11387d86"),
    ("Z/12Z", "-580370176922571521377119623805560667,164777749442383304184806388553159670001022757781223926",
     "7bb6501380bd333526e9bb03da9589d88558a1ed09ea9ff843c5abcfc5cca36f"),
    ("Z/2Z x Z/4Z", "-20173750272,-604010880958464",
     "ae4d426ab2213c0fa899aae2c9d426c2d82e98951bc0d32eac0c36fab8675c31"),
    ("Z/2Z x Z/6Z", "-27813117554749732103511670827,1312896294181385744703680423846225354252454",
     "729bc5e3eaad6c95a17e3509ef8330b2f716a6dd68f787aa58f3e2a64c32c713"),
    ("Z/2Z x Z/8Z", "-90881851392,6184700661989376",
     "3625ad50e02f46f6f99260f88591fbf8bb84647c1a3f55e94470cb0fe618e4b9"),
    ("Z/5Z, hard delta'", "-1088382440013156289861436532473788376816667,532349188256970958899849949447401312703223804875246209871211574",
     "2ab2f503501da0e2ec90a40bb385ca82b348d062b60aa6f1222ac4fb5a217c15"),
]


@pytest.mark.parametrize("structure,curve,digest", TORSION_PINS, ids=[s for s, *_ in TORSION_PINS])
def test_torsion_stdout_pinned(capsys, structure, curve, digest):
    code, out, _ = run_cli(capsys, "torsion", "--curve", curve)
    assert code == 0 and json.loads(out)["structure"] == structure.split(",")[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exceptional_minimizes_the_model_once(capsys, monkeypatch):
    calls = []
    minimize = curves.minimize_short
    for name, module in list(sys.modules.items()):  # every binding site in the package
        if name.startswith("shascope") and getattr(module, "minimize_short", None) is minimize:
            monkeypatch.setattr(module, "minimize_short", lambda model: calls.append(model) or minimize(model))
    code, out, _ = run_cli(capsys, "exceptional", "--curve", EX3_MIN, "--scan-bound", "1000")
    assert code == 0 and json.loads(out)["minimized"] == [-5316979, -4724275762]
    assert len(calls) == 1

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr) at a terminal width of 80
USAGE_AND_HELP_PINS = [
    (("--help",), 0,
     "c48a2620aaca7f76c1288c4fed1dbd0c1fcaeb215c8576e800d9b307337adbed", EMPTY),
    (("invariants", "--help"), 0,
     "f417ac9fbff827d200b687b75e9ac86109a8f9c921246a2d570c1b32b6983eb6", EMPTY),
    (("reduce", "--help"), 0,
     "674278a481b8bbbf3e25e4cd59077afd6f8568466ac606aba41f5d00b0cac2e7", EMPTY),
    (("bad-primes", "--help"), 0,
     "c76bc35a86d2397e2d06c703353c34f546709d784b929d32a1eb68b2ace29039", EMPTY),
    (("divpoly", "--help"), 0,
     "db79fc396248d5c45ce87916dcc2f62847891b1c3d3c86eb9cecde6aeb991edd", EMPTY),
    (("verify-identities", "--help"), 0,
     "a78a5ffbbc17d0730162b3afe850ef11481d38c7486fe922f81029fc1e5e321a", EMPTY),
    (("ffgroup", "--help"), 0,
     "6f486a13063e15ef5371bf38b178f98b107211408fbd9a3a05d22cde9b9421fd", EMPTY),
    (("torsion", "--help"), 0,
     "18560d300b76ced2ac3298ee5b7e21d1ac9eecf9bf10d10ebce8afee87f680a4", EMPTY),
    (("cor-traces", "--help"), 0,
     "77236c1f146441bb17ecc68702d99893192ae53109f722bc7bb18504c3ef5925", EMPTY),
    (("alpha-trace", "--help"), 0,
     "2e7193b237506e6c878012a38a22ad553c54636a986f526db8e98970c2d4247c", EMPTY),
    (("lift", "--help"), 0,
     "00900598a69d7163d7efdaa483e54dc6e42f9d3fbb0f2e086e52f95ba25c31e1", EMPTY),
    (("exceptional", "--help"), 0,
     "c5d2b52518a2d8ab648cb6f1186c9aa3ef268ce2024e326188e04ef903785b39", EMPTY),
    ((), 64,
     EMPTY, "d4265d00fc24e2235976cd9f20a4c57942a4e88bf0044cfb689094985cdffbcf"),
    (("invariants",), 64,
     EMPTY, "d824357ee40eb3a2ac07327eaf9e9c50e8e0f1517cb032fc67f8db5a97169c87"),
    (("no-such-command",), 64,
     EMPTY, "8d59cd87a71d0e94c1c8056f46250c296b7e8d7f049cd9a2f060f34b147d33f3"),
    (("ffgroup", "--effort", "5", "--p", "7", "--curve", "1,1"), 64,
     EMPTY, "63cae3d4b74e963ec1c08fadc5eabd473820018d26056e87ce043907c7e7d58a"),
    # a stray positional after a command's flags is a top-level usage error
    (("ffgroup", "--p", "7", "--curve", "1,1", "stray"), 64,
     EMPTY, "7f38cea817bea4de428d98422fa9146004f6f2707f33117f701defba9b015972"),
    # an option before the command is left to the command, which lacks it
    (("--curve", "1,1", "invariants"), 64,
     EMPTY, "d824357ee40eb3a2ac07327eaf9e9c50e8e0f1517cb032fc67f8db5a97169c87"),
    (("invariants", "invariants", "--curve", "1,1"), 64,
     EMPTY, "d107168f3709c5614f3f4c7784adc54e60ff4ed74966350f74756bca17b7a44f"),
    # help wins over a missing required flag
    (("lift", "--p", "7", "-h"), 0,
     "00900598a69d7163d7efdaa483e54dc6e42f9d3fbb0f2e086e52f95ba25c31e1", EMPTY),
    # domain errors: one stderr line, exit 2
    (("divpoly", "--n", "5"), 2,
     EMPTY, "398436a2eb24febea83da974ef863958d48b25024e92a7707b5ff007a755923e"),
    (("invariants", "--curve", "1,2,3"), 2,
     EMPTY, "96ed64ebd3138f687f300937a22aec4e124ea42f5efda193d4ca25ef3d69d964"),
    (("torsion", "--curve", "0,0"), 2,
     EMPTY, "5ac728a6e48853f5dfa2ad5ba29e224899a0c7139f19162b84ac4a2d16938022"),
    (("ffgroup", "--p", "7", "--curve", "0,0"), 2,
     EMPTY, "5ac728a6e48853f5dfa2ad5ba29e224899a0c7139f19162b84ac4a2d16938022"),
]


@pytest.mark.parametrize(
    "argv,code,out_digest,err_digest",
    USAGE_AND_HELP_PINS,
    ids=[" ".join(argv) or "no-arguments" for argv, *_ in USAGE_AND_HELP_PINS],
)
def test_usage_and_help_bytes_pinned(capsys, monkeypatch, argv, code, out_digest, err_digest):
    # argparse wraps usage and help to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    got, out, err = run_cli(capsys, *argv)
    digests = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
    assert (got, *digests) == (code, out_digest, err_digest)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(1)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli._build_parser.cache_clear()
    for _ in range(20):
        assert run_cli(capsys, "invariants", "--curve", "1,1")[0] == 0
    made = len(calls)
    calls.clear()
    cli._build_parser.cache_clear()
    cli._build_parser()
    assert 0 < made <= len(calls)


def test_value_flags_are_the_declared_options_that_take_a_value():
    # only these get '--flag value' folded into '--flag=value'; the store_true
    # flags (--symbolic, --step8) and --help take no value
    assert cli._build_parser()[2] == {"--curve", "--p", "--ell", "--n", "--effort", "--scan-bound", "--max-n"}


def test_one_parse_per_command(capsys, monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_cli(capsys, "ffgroup", "--p", "7", "--curve", "1,1")[0] == 0
    assert calls == ["sha-scope ffgroup"]


def test_no_state_leaks_between_calls(capsys, monkeypatch):
    # each call in one process gives the bytes of that command run alone
    monkeypatch.setenv("COLUMNS", "80")
    flags = ("--p", "7", "--ell", "5", "--curve", EX3_MIN)
    sequence = [
        ("ffgroup", *flags),
        ("ffgroup", "--p", "7"),
        ("--help",),
        ("lift", *flags),
        ("exceptional", "--curve", "1,1", "--scan-bound", "100"),
        ("ffgroup", *flags),
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    alone = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-m", "shascope.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == alone
    assert [code for code, _, _ in alone] == [0, 64, 0, 0, 0, 0]
