"""The three benchmark workloads: seeded inputs, one op each, output checks.

A workload yields its inputs in blocks. Every block has the same fixed
layout of input classes (coefficient heights, prime sizes, op kinds); the
seed draws the concrete curves and primes inside each class. A run measures
whole blocks, so every run of a workload sees the same mix and run-to-run
differences come from the drawn inputs, not from where the clock stopped.

Each op builds its own tables and models, as one CLI invocation would; no
memo is shared between ops. `run` calls the library through module
attributes (never through names imported here), so the traced run's
wrappers see every call. `check` returns a list of problems, empty when the
output is correct.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from refclock import fp_add
from shascope import arith, cli, curves, divpoly, ffcurve, numfield, poly, torsionq

SMALL_EXCEPTIONAL = {2, 3, 5, 7, 13}

INFINITY = ffcurve.INFINITY


def call_cli(argv: list[str]) -> tuple[int, str]:
    """In-process `sha-scope` invocation: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _random_curve(rng: random.Random, bits_a: float, bits_b: float) -> tuple[int, int]:
    """Nonsingular y^2 = x^3 + Ax + B with |A| <= 2^bits_a, |B| <= 2^bits_b."""
    ha, hb = int(2**bits_a), int(2**bits_b)
    while True:
        a, b = rng.randint(-ha, ha), rng.randint(-hb, hb)
        if 4 * a**3 + 27 * b**2 != 0:
            return a, b


def _prime_in(rng: random.Random, lo: int, hi: int, ok=lambda p: True) -> int:
    """A random prime p in [lo, hi) with ok(p)."""
    while True:
        p = rng.randrange(lo, hi)
        if p >= 5 and arith.is_prime(p) and ok(p):
            return p


def _fp_points(p: int, a: int, b: int) -> list[tuple[int, int]]:
    """Affine points of y^2 = x^3 + ax + b over F_p sorted by (x, y), found
    from a table of squares, independently of the library."""
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in roots.get((x * x * x + a * x + b) % p, ())]


def _fp_mul(k: int, P, a: int, p: int):
    R = None
    while k:
        if k & 1:
            R = fp_add(R, P, a, p)
        P = fp_add(P, P, a, p)
        k >>= 1
    return R


@functools.cache
def _primorial(bound: int) -> int:
    """Product of the primes below `bound`, built without a list of them, so
    the benchmark's own allocations stay small next to the program's."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    chunks, acc, i = [], 1, sieve.find(1)
    while i >= 0:
        acc *= i
        if acc.bit_length() > 4096:
            chunks.append(acc)
            acc = 1
        i = sieve.find(1, i + 1)
    chunks.append(acc)
    while len(chunks) > 1:  # product tree: balanced multiplications
        chunks = [math.prod(chunks[j : j + 2]) for j in range(0, len(chunks), 2)]
    return chunks[0]


def _rough_part(n: int, bound: int = 10**6) -> int:
    """|n| with every prime factor below `bound` divided out."""
    n = abs(n)
    g = math.gcd(n, _primorial(bound))
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n


def _recursion_indices(n: int) -> set[int]:
    """The n' >= 1 whose f_n' the division recursion computes on its way to
    f_n (f_1..f_4 are its base cases). Checking these costs nothing more;
    checking every n' <= n would compute the rest, at three times the op's cost."""
    todo, seen = [n], {1, 2, 3, 4}
    while todo:
        k = todo.pop()
        if k not in seen:
            seen.add(k)
            m = k // 2
            todo += range(m - 2 if k % 2 == 0 else m - 1, m + 3)
    return seen


def _val(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


# ---------------------------------------------------------------------------
# survey: the exceptional-prime report over many curves
# ---------------------------------------------------------------------------

# The paper's Example 2 and Example 3 curves, as short models, open the stream.
EXAMPLE2 = curves.to_short(curves.LongModel(0, 1692602, 0, -530052723915, 0))
EXAMPLE3 = curves.to_short(curves.LongModel(1, -1, 0, -332311, -73733731))
# their exceptional sets (paper's Examples 2 and 3; unchanged at scan bound 1000)
EXAMPLE2_EXCEPTIONAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 8420798017)
EXAMPLE3_EXCEPTIONAL = (2, 3, 5, 7, 13, 23)


@dataclass(frozen=True)
class SurveyInput:
    A: int
    B: int
    torsion: bool = True  # False only for Example 2, see Survey
    known: tuple[int, ...] | None = None  # exceptional set from the paper


@dataclass
class SurveyOutput:
    invariants: object
    minimized: object
    u: int
    reports: list
    torsion: object
    exceptional_code: int
    exceptional_json: str
    group_orders: dict


class Survey:
    """One op: invariants, minimal model, bad primes, rational torsion, the
    CLI exceptional-prime report, and #E(F_p) at good 5 <= p < AP_BOUND.

    Block position k draws A with about LAYOUT[k][0] bits and B with 1.5
    times as many, until delta' = 4A^3 + 27B^2 falls in the factoring class
    LAYOUT[k][1]. With r the part of delta' made of primes >= 10^6:
      "S" r < 10^12: trial division finds every prime factor;
      "P" r >= 10^12 is prime: trial division runs to 10^6, r is a prime;
      "R" r >= 10^12 is composite: Brent rho splits r after trial division.
    Fixing the class per position gives every run the same share of each
    factoring cost; the heights alone would leave that share to chance.
    rational_torsion on Example 2 factors B - y^2 for all 12,288 candidate y
    and takes minutes, so that op skips the torsion step.
    """

    name = "survey"
    LAYOUT = (
        (4, "S"), (8, "S"), (12, "S"),
        (14, "P"), (16, "P"), (18, "P"), (19, "P"), (20, "P"),
        (15, "R"), (17, "R"), (18, "R"), (19, "R"), (20, "R"),
    )
    SCAN_BOUND = 1000
    AP_BOUND = 200

    def blocks(self, seed: int):
        rng = random.Random(seed)
        yield [
            SurveyInput(EXAMPLE2.A, EXAMPLE2.B, torsion=False, known=EXAMPLE2_EXCEPTIONAL),
            SurveyInput(EXAMPLE3.A, EXAMPLE3.B, known=EXAMPLE3_EXCEPTIONAL),
        ]
        while True:
            yield [self._draw(rng, h, cls) for h, cls in self.LAYOUT]

    @staticmethod
    def _draw(rng: random.Random, height: int, cls: str) -> SurveyInput:
        while True:
            bits = height + rng.random()
            a, b = _random_curve(rng, bits, 1.5 * bits)
            r = _rough_part(4 * a**3 + 27 * b**2)
            if cls == ("S" if r < 10**12 else "P" if arith.is_prime(r) else "R"):
                return SurveyInput(a, b)

    def run(self, item: SurveyInput) -> SurveyOutput:
        model = curves.ShortModel(item.A, item.B)
        inv = curves.invariants(model)
        minimized, u = curves.minimize_short(model)
        reports = curves.bad_primes(model)
        torsion = torsionq.rational_torsion(model) if item.torsion else None
        code, text = call_cli(
            ["exceptional", "--curve", f"{item.A},{item.B}", "--scan-bound", str(self.SCAN_BOUND)]
        )
        bad = {r.p for r in reports}
        orders = {
            p: ffcurve.group_order(ffcurve.reduce_curve(minimized, p))
            for p in arith.primes_below(self.AP_BOUND)
            if p >= 5 and p not in bad
        }
        return SurveyOutput(inv, minimized, u, reports, torsion, code, text, orders)

    def check(self, item: SurveyInput, out: SurveyOutput) -> list[str]:
        problems = []
        model = curves.ShortModel(item.A, item.B)
        if out.invariants.delta != -16 * model.delta_prime():
            problems.append("invariants: delta != -16 delta'")
        m = out.minimized
        if model.delta_prime() != m.delta_prime() * out.u**12:
            problems.append("minimize_short: delta' not scaled by u^12")
        dp = m.delta_prime()
        fac = arith.factorize(dp)
        if fac.value != dp:
            problems.append("factorize: value != delta'")
        if not all(arith.is_prime(q) for q in fac.primes()):
            problems.append("factorize: a factor fails is_prime")
        if [r.p for r in out.reports] != fac.primes():
            problems.append("bad_primes: primes differ from the factorization of delta'")
        if out.torsion is not None:
            for p, n in out.group_orders.items():
                if n % out.torsion.order:
                    problems.append(f"torsion order {out.torsion.order} does not divide #E(F_{p}) = {n}")
                    break
        if out.exceptional_code != 0:
            return problems + [f"exceptional: exit code {out.exceptional_code}"]
        try:
            doc = json.loads(out.exceptional_json)
        except ValueError:
            return problems + ["exceptional: stdout is not JSON"]
        # integers of 2^53 and above arrive as decimal strings
        exc = [int(q) for q in doc["exceptional_set"]]
        missing = (SMALL_EXCEPTIONAL | set(fac.primes())) - set(exc)
        if missing:
            problems.append(f"exceptional set misses {sorted(missing)}")
        if [int(c) for c in doc["minimized"]] != [m.A, m.B]:
            problems.append("exceptional: minimized model differs from minimize_short")
        if item.known is not None and exc != list(item.known):
            problems.append(f"exceptional: set differs from the paper's {list(item.known)}")
        return problems


# ---------------------------------------------------------------------------
# fpgroups: F_p group structure and lifting plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FpInput:
    A: int
    B: int
    p: int
    ell: int
    order: int  # #E(F_p), counted independently when the input is drawn
    generator: tuple[int, int] | None  # least point of order ell^v_ell(order)


class FpGroups:
    """One op: `ffgroup --p p --ell ell` then `lift --p p --ell ell`.

    The stream opens with one op at p in BIG (ell does not divide #E(F_p), so
    lift's plan is trivial and the op is the group structure, computed twice).
    Every later block draws p from the windows in LAYOUT, one op each:
    3 small, 5 typical (these hold the median) and 2 medium (these hold the
    tail). In these ops ell divides #E(F_p), so ffgroup lists the ell-power
    points and lift builds a Hensel-certified plan.

    Every op meets lift's preconditions: p is coprime to
    delta' * ell * (ell^2 - 1) and p != 1 mod ell, so the ell-primary part is
    cyclic and has a generator. The curve is minimal (no q^4 | A, q^6 | B), so
    lift's reduction is ffgroup's curve. The generator's x is a simple root of
    X^3 + AX + B - y^2 mod p: at a double root lift may find no p-adic root
    and exits 2 ("no p-adic root of the lift cubic"), which these ops avoid.
    """

    name = "fpgroups"
    BIG = ((9000, 10000), 3)
    LAYOUT = (
        ((100, 250), 3), ((100, 250), 5), ((100, 250), 7),
        ((400, 440), 3), ((400, 440), 5), ((400, 440), 7), ((400, 440), 3), ((400, 440), 5),
        ((1000, 1100), 7), ((1000, 1100), 3),
    )

    def blocks(self, seed: int):
        rng = random.Random(seed)
        yield [self._draw(rng, *self.BIG, split=False)]
        while True:
            yield [self._draw(rng, window, ell, split=True) for window, ell in self.LAYOUT]

    @staticmethod
    def _draw(rng: random.Random, window, ell: int, split: bool) -> FpInput:
        while True:
            a, b = _random_curve(rng, 20, 30)
            if any(a % q**4 == 0 and b % q**6 == 0 for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)):
                continue  # not minimal
            dp = 4 * a**3 + 27 * b**2
            p = _prime_in(
                rng, *window, lambda p: p % ell != 1 and dp * ell * (ell * ell - 1) % p != 0
            )
            am, bm = a % p, b % p
            pts = _fp_points(p, am, bm)
            order = len(pts) + 1
            n = _val(order, ell)
            if (n > 0) != split:
                continue
            if not n:
                return FpInput(a, b, p, ell, order, None)
            q = ell**n
            gen = next(P for P in pts if _fp_mul(q, P, am, p) is None and _fp_mul(q // ell, P, am, p))
            if (3 * gen[0] ** 2 + am) % p:
                return FpInput(a, b, p, ell, order, gen)

    def run(self, item: FpInput) -> tuple:
        flags = ["--p", str(item.p), "--ell", str(item.ell), "--curve", f"{item.A},{item.B}"]
        return call_cli(["ffgroup", *flags]), call_cli(["lift", *flags])

    def check(self, item: FpInput, out: tuple) -> list[str]:
        (code_g, text_g), (code_l, text_l) = out
        if code_g or code_l:
            return [f"exit codes ffgroup={code_g} lift={code_l}"]
        try:
            g, lift = json.loads(text_g), json.loads(text_l)
        except ValueError:
            return ["stdout is not JSON"]
        problems = []
        p, ell, N = item.p, item.ell, item.order
        n1, n2 = g["structure"]
        if g["order"] != N or n1 * n2 != N:
            problems.append(f"group order {g['order']} = {n1}*{n2}, Legendre count {N}")
        if n2 % n1 or (p - 1) % n1:
            problems.append(f"invariant factors {n1}, {n2} violate n1 | n2 and n1 | p-1")
        n = _val(N, ell)
        if g["ell_part_order"] != ell**n or g["cyclic"] is not True:
            problems.append("ell-primary part: wrong order or not cyclic")
        curve = ffcurve.FpCurve(p, g["A"], g["B"])
        by_order = g["points_by_order"]
        for o_text, pts in by_order.items():
            o = int(o_text)
            if len(pts) != o - o // ell:  # a cyclic group has phi(o) points of order o
                problems.append(f"{len(pts)} points of order {o}, expected {o - o // ell}")
            for x, y in pts:
                P = (x, y)
                if not curve.on_curve(P) or ffcurve.scalar_mul(curve, o, P) is not INFINITY or (
                    ffcurve.scalar_mul(curve, o // ell, P) is INFINITY
                ):
                    problems.append(f"point {P} does not have order {o}")
                    break
        a, b = lift["bezout"]
        if lift["n"] != n or lift["m"] * ell**n != N or lift["m"] * a + ell * b != 1:
            problems.append("lift: n, m or the Bezout pair is wrong")
        if n:
            gen = item.generator
            if tuple(lift["generator"]) != gen or list(gen) not in by_order.get(str(ell**n), []):
                problems.append("lift: generator is not the least point of order ell^n")
            cert = lift["hensel"]
            if cert["val_h"] is not None and cert["val_h"] <= 2 * cert["val_dh"]:
                problems.append("lift: Hensel inequality fails")
            c = [Fraction(t["num"], t["den"]) for t in lift["cubic"]]
            x = cert["x_cert"]
            if (c[0] + c[1] * x + c[2] * x * x + c[3] * x**3) % p != 0 or x % p != lift["target_x"]:
                problems.append("lift: certified x is not a root of the cubic mod p")
        elif lift["generator"] is not None:
            problems.append("lift: generator given although ell does not divide the order")
        return problems


# ---------------------------------------------------------------------------
# divpoly: polynomial kernels, the division recursion, quotient-ring traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivInput:
    kind: str  # "symbolic" | "zz" | "fp" | "qq"
    A: int
    B: int
    p: int = 0


class DivPoly:
    """One op of one kind, in the fixed rotation KINDS; each on a seeded curve.

    symbolic: Z[A,B] table, check_lemma5 for n <= SYMBOLIC_N, quotient_g(3, 2);
    zz:       ZZ table f_ZZ_N (the recursion fills the f_n it needs), cor6_check
              for ell in 5, 7, 11;
    fp:       at a prime of a few hundred, torsion_test against scalar_mul at
              every point for n <= 12 (criterion 5's oracle);
    qq:       alpha_trace_direct (ell 5, n 1 and 2), alpha_trace_step8
              (ell 5 and 7), cor7_check(None, ell) for ell 5 and 7.
    The zz and symbolic ops cost about the same, and fp about half as much:
    with two zz and two symbolic ops in each six, the median falls in the
    middle of their cluster rather than on a gap between kinds;
    qq, the costliest kind, holds the tail and uses curves with
    |A|, |B| <= 16 so its cost varies little.
    """

    name = "divpoly"
    KINDS = ("fp", "zz", "symbolic", "zz", "symbolic", "qq")
    SYMBOLIC_N = 12
    ZZ_N = 30
    FP_WINDOW = (250, 450)
    ORACLE_N = 12

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield [self._draw(rng, kind) for kind in self.KINDS]

    def _draw(self, rng: random.Random, kind: str) -> DivInput:
        if kind == "zz":
            return DivInput(kind, *_random_curve(rng, 10, 10))
        if kind == "fp":
            a, b = _random_curve(rng, 10, 10)
            p = _prime_in(rng, *self.FP_WINDOW, lambda p: (4 * a**3 + 27 * b**2) % p != 0)
            return DivInput(kind, a, b, p)
        if kind == "qq":
            while True:
                a, b = _random_curve(rng, 4, 4)
                dp = 4 * a**3 + 27 * b**2
                if dp % 5 and dp % 7:  # alpha traces need ell coprime to delta'
                    return DivInput(kind, a, b)
        return DivInput(kind, *_random_curve(rng, 6, 6))

    def run(self, item: DivInput):
        model = curves.ShortModel(item.A, item.B)
        if item.kind == "symbolic":
            sym = divpoly.symbolic_table()
            lemma5 = [divpoly.check_lemma5(sym, n) for n in range(1, self.SYMBOLIC_N + 1)]
            return sym, lemma5, divpoly.quotient_g(sym, 3, 2)
        if item.kind == "zz":
            table = divpoly.DivisionTable(poly.ZZ, item.A, item.B)
            return table, table.f(self.ZZ_N), [numfield.cor6_check(model, ell) for ell in (5, 7, 11)]
        if item.kind == "fp":
            curve = ffcurve.reduce_curve(model, item.p)
            table = divpoly.DivisionTable(poly.Fp(item.p), curve.A, curve.B)
            pts = ffcurve.enumerate_points(curve)[1:]
            ns = range(1, self.ORACLE_N + 1)
            by_test = [[divpoly.torsion_test(table, x, y, n) for n in ns] for x, y in pts]
            by_mul = [[ffcurve.scalar_mul(curve, n, P) is INFINITY for n in ns] for P in pts]
            return curve, pts, by_test, by_mul
        direct = [numfield.alpha_trace_direct(model, 5, n) for n in (1, 2)]
        step8 = [numfield.alpha_trace_step8(model, ell) for ell in (5, 7)]
        return direct, step8, [numfield.cor7_check(None, ell) for ell in (5, 7)]

    def check(self, item: DivInput, out) -> list[str]:
        problems = []
        if item.kind == "symbolic":
            sym, lemma5, g = out
            if not all(lemma5):
                problems.append("check_lemma5 false")
            if g.degree() != 36 or g.lc() != sym.ring.from_int(3):
                problems.append("quotient_g(3, 2): wrong degree or leading coefficient")
            # the Z[A,B] table specialised at this op's curve equals the ZZ table
            zz = divpoly.DivisionTable(poly.ZZ, item.A, item.B)
            for n in range(1, self.SYMBOLIC_N + 1):
                spec = [c.subst({"A": item.A, "B": item.B}) for c in sym.f(n).coeffs]
                if poly.ExactPoly.make(poly.ZZ, spec) != zz.f(n):
                    problems.append(f"symbolic f_{n} does not specialise to the ZZ table")
                    break
        elif item.kind == "zz":
            table, f, cor6 = out
            if not all(cor6):
                problems.append("cor6_check false")
            if f.degree() != table.expected_degree(self.ZZ_N) or not all(
                divpoly.check_lemma5(table, n) for n in _recursion_indices(self.ZZ_N)
            ):
                problems.append("check_lemma5 false over ZZ")
        elif item.kind == "fp":
            curve, pts, by_test, by_mul = out
            if pts != _fp_points(item.p, curve.A, curve.B):
                problems.append("enumerate_points misses points")
            if by_test != by_mul:
                problems.append("torsion_test disagrees with scalar_mul")
        else:
            direct, step8, cor7 = out
            if [d.degree for d in direct] != [12, 300]:
                problems.append("alpha_trace_direct: wrong torsion degrees")
            if step8[0] != direct[1].S:
                problems.append("alpha_trace_step8 != alpha_trace_direct(5, 2).S")
            if not all(cor7):
                problems.append("cor7_check false")
        return problems


WORKLOADS = {w.name: w for w in (Survey(), FpGroups(), DivPoly())}
