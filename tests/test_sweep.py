"""Byte sweep: a seeded command list run in-process through cli.main, pinned
by one sha256 per subcommand over (argv, exit code, stdout, stderr).

A deliberate output change re-pins only its own subcommand's digest. After
such a change, `PYTHONPATH=src python tests/test_sweep.py` rewrites
sweep_locator.txt and prints the new SWEEP_PINS. The locator file holds the
first 8 hex digits of each command's digest, one line per command in list
order, so a failing digest names the first argv whose bytes differ, and a
git diff of the file shows which commands changed.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from shascope.arith import primes_below
from shascope.cli import main

LOCATOR = Path(__file__).with_name("sweep_locator.txt")

SWEEP_PINS = {
    "alpha-trace": "26541ef158f2ae844f48322b9a6f1ef0cb41b38d8ea0b82a03df7b031de194fc",
    "bad-primes": "44ddcb73f15b4923ed81376bcdf9bb0a787907993fa934e27a6f4019bc003ccd",
    "cor-traces": "752cd8bfb53034c0a378c7e40286454e8547eddaf525402b0823334a244e8982",
    "divpoly": "d674199184844d2c9b329951d432294797c1efb1834b083f448d25738e19ebb1",
    "exceptional": "50ea6110d16c22800c5b4f49bbd8967476867e6a07f172e7b497f73f8eb3eda1",
    "ffgroup": "f15dc78d998b2db58b23ae19c2643124d762bbc2a092392c02d3b1947ba6e9c5",
    "invariants": "754e74a27fdaa74723251bf3f37ba2911fa017f968719b384c3f95e8ca8980fa",
    "lift": "ca0f5c9378161944a1301fc794e805bb9bc7a5750517e9aaff4f6a4babeff10d",
    "reduce": "9eb614583594e6b0c72fcd6e5b280adf19f5cb91c06b987dbcfe03fd00acb032",
    "torsion": "c91e1031e525875dcdf96516fe50ec58dc4d15ca8ed4b8f8ff6cc96c54609c8b",
    "verify-identities": "97582141527ff82f99586665d92a9cd584e4b624b355eea2c6bc6ef9309bf6e0",
}

# the first curve of each of Mazur's 15 torsion groups (tests/test_cli.py's
# TORSION_PINS) and the curves the CI workflow runs
FIXED_CURVES = (
    "1,1", "1,0", "0,16", "-1,0", "-3807,-10206",
    "847577088,111949765410816",
    "-21447770112,-180587839094784",
    "-131811309363658752,79444951080688873579216896",
    "-457308483123779296875,2934748163446784019470214843750",
    "-21594729012303309897203712,169486234851313731731261192641148092416",
    "-113976747,-403511239386",
    "-580370176922571521377119623805560667,164777749442383304184806388553159670001022757781223926",
    "-20173750272,-604010880958464",
    "-27813117554749732103511670827,1312896294181385744703680423846225354252454",
    "-90881851392,6184700661989376",
    "-1088382440013156289861436532473788376816667,532349188256970958899849949447401312703223804875246209871211574",
    "-806071,962360405", "-5316979,-4724275762", "1000,-777", "-66,-106", "25,875",
    "0,1692602,0,-530052723915,0", "1,-1,0,-332311,-73733731",
)


def sweep_commands() -> list[tuple[str, ...]]:
    """300 curves with |A|, |B| <= 300 through the per-curve subcommands, F_p
    commands at a prime below 3000, the quotient-ring commands on 40 of them,
    the curve-free commands, and the fixed curves."""
    rng = random.Random(1)
    primes = primes_below(3000)[2:]
    cmds = []
    curves = []
    while len(curves) < 300:
        A, B = rng.randint(-300, 300), rng.randint(-300, 300)
        if 4 * A**3 + 27 * B**2:
            curves.append(f"{A},{B}")
    for i, c in enumerate(curves):
        p, ell = str(rng.choice(primes)), str(rng.choice((2, 3, 5, 7)))
        cmds += [
            ("invariants", "--curve", c),
            ("bad-primes", "--curve", c),
            ("exceptional", "--curve", c),
            ("torsion", "--curve", c),
            ("reduce", "--p", p, "--curve", c),
            ("ffgroup", "--p", p, "--ell", ell, "--curve", c),
            ("lift", "--p", p, "--ell", ell, "--curve", c),
        ]
        if i < 40:
            odd = str(rng.choice((3, 5, 7, 11, 13)))
            cmds += [
                ("alpha-trace", "--ell", odd, "--n", "1", "--step8", "--curve", c),
                ("cor-traces", "--ell", odd, "--n", str(rng.randint(1, 2)), "--curve", c),
                ("divpoly", "--n", str(rng.randint(0, 12)), "--curve", c),
            ]
    cmds += [("verify-identities", "--max-n", str(n)) for n in (0, 1, 6, 12)]
    cmds += [("divpoly", "--n", str(n), "--symbolic") for n in range(0, 13)]
    for c in FIXED_CURVES:
        cmds += [(sub, "--curve", c) for sub in ("invariants", "bad-primes", "exceptional", "torsion")]
    return cmds


def run_sweep(cmds) -> list[str]:
    """One sha256 hex digest per command over (argv, exit code, stdout, stderr)."""
    digests = []
    for argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        record = json.dumps([list(argv), code, out.getvalue(), err.getvalue()])
        digests.append(hashlib.sha256(record.encode()).hexdigest())
    return digests


def subcommand_digests(cmds, digests) -> dict[str, str]:
    joined: dict[str, list[str]] = {}
    for argv, d in zip(cmds, digests):
        joined.setdefault(argv[0], []).append(d)
    return {sub: hashlib.sha256("\n".join(ds).encode()).hexdigest() for sub, ds in joined.items()}


@pytest.fixture(scope="module")
def sweep():
    cmds = sweep_commands()
    digests = run_sweep(cmds)
    return cmds, digests, subcommand_digests(cmds, digests)


@pytest.mark.parametrize("sub", sorted(SWEEP_PINS))
def test_sweep_digest_pinned(sweep, sub):
    cmds, digests, got = sweep
    if got[sub] == SWEEP_PINS[sub]:
        return
    locator = LOCATOR.read_text().split()
    if len(locator) != len(cmds):
        pytest.fail(f"{sub}: digest differs; the locator has {len(locator)} lines for {len(cmds)} commands")
    first = next(
        (argv for argv, d, loc in zip(cmds, digests, locator) if argv[0] == sub and d[:8] != loc), None
    )
    pytest.fail(f"{sub}: digest differs; first differing argv: {first}")


def test_sweep_covers_every_subcommand(sweep):
    cmds, _, got = sweep
    assert sorted(got) == sorted(SWEEP_PINS)
    assert len(cmds) == len(LOCATOR.read_text().split())


if __name__ == "__main__":
    cmds = sweep_commands()
    digests = run_sweep(cmds)
    LOCATOR.write_text("".join(d[:8] + "\n" for d in digests))
    print("SWEEP_PINS = {")
    for sub, d in sorted(subcommand_digests(cmds, digests).items()):
        print(f'    "{sub}": "{d}",')
    print("}")
