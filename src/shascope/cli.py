"""sha-scope: command-line front end.

Every subcommand prints one JSON document on standard output. Output is
deterministic: keys sorted, fixed separators, integers with absolute value
below 2^53 as JSON numbers and larger ones as decimal strings, rationals as
{"num": ..., "den": ...} objects.

Exit codes: 0 success, 2 domain error, 3 budget/ceiling error, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import curves, divpoly, ffcurve, galoisrules, liftkit, numfield
from .errors import BudgetError, DomainError, ShaScopeError
from .poly import ZZ, ExactPoly

_JSON_INT_LIMIT = 2**53
MAX_N_CEILING = 10**4  # largest verify-identities --max-n: about one TopTable step per n


def _enc(x):
    t = type(x)
    if t is str or t is bool or x is None:
        return x
    if isinstance(x, int):
        return x if abs(x) < _JSON_INT_LIMIT else str(x)
    if t is list or t is tuple:
        return [_enc(v) for v in x]
    if t is dict:
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return {"num": _enc(x.numerator), "den": _enc(x.denominator)}
    if isinstance(x, ExactPoly):
        return [_enc(c) for c in x.coeffs]
    if isinstance(x, tuple):  # a result record (a named tuple); plain tuples are lists above
        return _enc(x._asdict())
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(_enc(obj), sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _parse_curve(text: str):
    parts = [s.strip() for s in text.split(",")]
    try:
        nums = [int(s) for s in parts]
    except ValueError as exc:
        raise DomainError(f"curve coefficients must be integers: {text!r}") from exc
    if len(nums) == 2:
        return curves.ShortModel(*nums)
    if len(nums) == 5:
        return curves.LongModel(*nums)
    raise DomainError("--curve takes 'A,B' or 'a1,a2,a3,a4,a6'")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser], frozenset[str]]:
    """The top parser, each command's own parser by command name, and the
    options that take a value."""
    top = _Parser(prog="sha-scope", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    takes_value: set[str] = set()

    def cmd(name, *, curve="required", **flags):
        p = sub.add_parser(name)
        if curve:
            flags = {"curve": dict(required=curve == "required", help="'A,B' or 'a1,a2,a3,a4,a6'"), **flags}
        for flag, kw in flags.items():
            action = p.add_argument("--" + flag.replace("_", "-"), **kw)
            if action.nargs != 0:  # a store_true flag takes none
                takes_value.update(action.option_strings)

    effort = dict(type=int, default=50, help="factoring budget")
    cmd("invariants")
    cmd("reduce", p=dict(type=int, required=True))
    cmd("bad-primes", effort=effort)
    cmd(
        "divpoly",
        curve="optional",
        n=dict(type=int, required=True),
        symbolic=dict(action="store_true"),
    )
    cmd("verify-identities", curve=False, max_n=dict(type=int, default=12))
    cmd("ffgroup", p=dict(type=int, required=True), ell=dict(type=int, default=None))
    cmd("torsion")
    cmd("cor-traces", ell=dict(type=int, required=True), n=dict(type=int, default=1))
    cmd(
        "alpha-trace",
        ell=dict(type=int, required=True),
        n=dict(type=int, default=1),
        step8=dict(action="store_true"),
    )
    cmd("lift", p=dict(type=int, required=True), ell=dict(type=int, required=True))
    cmd("exceptional", effort=effort, scan_bound=dict(type=int, default=10**4))
    return top, sub.choices, frozenset(takes_value)


def _render_symbolic(poly: ExactPoly) -> str:
    terms = []
    for i in range(poly.degree(), -1, -1):
        c = poly.coeff(i)
        if not c:
            continue
        cs = repr(c)
        if i == 0:
            terms.append(cs)
        else:
            terms.append(f"({cs})*X" if i == 1 else f"({cs})*X^{i}")
    return " + ".join(terms) if terms else "0"


def _run(args):
    """The JSON document of one parsed command."""
    if args.command == "verify-identities":
        if args.max_n < 0:
            raise DomainError(f"--max-n must be >= 0, got {args.max_n}")
        if args.max_n > MAX_N_CEILING:
            raise BudgetError(f"--max-n {args.max_n} exceeds ceiling {MAX_N_CEILING}")
        table = divpoly.symbolic_table()
        lemma5 = all(divpoly.check_lemma5(table, n) for n in range(1, args.max_n + 1))
        eq46 = divpoly.verify_eq46(table)
        cor7 = all(numfield.cor7_check(None, ell) for ell in (3, 5))
        return {"eq46": eq46, "lemma5_max_n": args.max_n, "lemma5": lemma5, "cor7": cor7}

    if args.command == "divpoly" and args.symbolic:
        return {"n": args.n, "f": _render_symbolic(divpoly.symbolic_table().f(args.n))}
    if args.curve is None:  # only divpoly's --curve is optional
        raise DomainError("--curve required without --symbolic")
    model = _parse_curve(args.curve)
    if args.command == "invariants":  # of the model as given, long or short
        return curves.invariants(model)
    if isinstance(model, curves.LongModel):
        model = curves.to_short(model)

    if args.command == "reduce":
        return curves.reduction_report(model, args.p)

    if args.command == "bad-primes":
        minimized, fac = curves.delta_prime_factorization(model, effort=args.effort)
        return {
            "minimized": [minimized.A, minimized.B],
            "delta_prime_factors": {str(p): e for p, e in fac.factors},
            "reports": [curves.reduction_report(minimized, p) for p in fac.primes()],
        }

    if args.command == "divpoly":
        return {"n": args.n, "coeffs": divpoly.DivisionTable(ZZ, model.A, model.B).f(args.n)}

    if args.command == "ffgroup":
        curve = ffcurve.reduce_curve(model, args.p)
        st = ffcurve.group_structure(curve)
        out = {
            "p": args.p,
            "A": curve.A,
            "B": curve.B,
            "order": st.order,
            "structure": [st.n1, st.n2],
        }
        if args.ell is not None:
            prim = ffcurve.ell_primary(curve, args.ell)
            out["ell"] = args.ell
            out["ell_part_order"] = prim.order
            out["cyclic"] = prim.cyclic
            out["points_by_order"] = {str(o): pts for o, pts in sorted(prim.points_by_order.items())}
        return out

    if args.command == "torsion":
        # imported here alone: TorsionGroup is still a dataclass, and no
        # other command should pay for importing dataclasses
        from . import torsionq

        t = torsionq.rational_torsion(model)
        return {"structure": t.structure, "order": t.order, "points": t.points}

    if args.command == "cor-traces":
        out = {
            "ell": args.ell,
            "n": args.n,
            "subleading_zero": numfield.cor6_check(model, args.ell, args.n),
        }
        if args.n == 1:
            out["phi_coefficient_rule"] = numfield.cor7_check(model, args.ell)
        return out

    if args.command == "alpha-trace":
        res = numfield.alpha_trace_direct(model, args.ell, args.n)
        out = {"ell": args.ell, "n": args.n, "S": res.S, "degree": res.degree}
        if args.step8:
            pred = numfield.alpha_trace_step8(model, args.ell)
            out["step8_prediction"] = pred
            if args.n == 2:
                out["step8_matches"] = pred == res.S
        return out

    if args.command == "lift":
        minimized, _ = curves.minimize_short(model)
        return liftkit.lift_plan(minimized, args.p, args.ell)

    # exceptional
    rep = galoisrules.theorem5_report(model, scan_bound=args.scan_bound, effort=args.effort)
    return {
        "exceptional_set": list(rep.exceptional),
        "minimized": [rep.model.A, rep.model.B],
        "scan_bound": args.scan_bound,
        "smallest_full": rep.smallest_full,
    }


def _join_flag_values(argv: list[str], takes_value: frozenset[str]) -> list[str]:
    """Fold '--flag value' into '--flag=value' so negative values parse."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in takes_value and i + 1 < len(argv):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    """Run one sha-scope command; return its exit code.

    The parsers are built on the first call and kept for the process, so main
    may be called repeatedly in one process at the cost of parsing alone.
    When argv[0] names a command, that command's own parser parses its flags
    once. Anything else (no command, --help, an unknown command, an option
    before the command, or a token the command leaves over) goes to the top
    parser, which writes argparse's help and usage errors. Each call parses
    into a fresh namespace and writes to the sys.stdout and sys.stderr of
    that moment.
    """
    top, commands, takes_value = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_flag_values(list(argv), takes_value)
    try:
        own = commands.get(argv[0]) if argv else None
        if own is not None:
            args, extra = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if own is None or extra:
            args = top.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        _emit(_run(args))
    except BudgetError as exc:
        sys.stderr.write(f"sha-scope: budget exceeded: {exc}\n")
        return 3
    except ShaScopeError as exc:
        sys.stderr.write(f"sha-scope: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
