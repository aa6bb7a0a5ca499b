"""Dense exact polynomials over pluggable coefficient rings.

ExactPoly stores coefficients low-degree-first over one of:
  ZZ       -- Python int
  QQ       -- fractions.Fraction
  Fp(p)    -- ints reduced mod p
  MPolyRing(vars) -- MPoly, sparse multivariate integer polynomials
                     (used for the symbolic rings Z[A,B] and Z[A,B,lam])

Coefficients compute with Python's +, - and *, and a coefficient is zero
when it is falsy. A Ring supplies only constants (from_int) and exact
division (exact_div). ExactPoly.make is the one place F_p reduces: products
and sums run on plain ints and each output coefficient is taken mod p once.

Division is exact-by-construction: divmod steps that would leave the ring
raise, and exact_div asserts a zero remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantViolation


# ---------------------------------------------------------------------------
# multivariate integer polynomials (sparse, exponent-tuple -> int)
# ---------------------------------------------------------------------------


class MPoly:
    """Immutable sparse polynomial in named variables with int coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def const(cls, vars: tuple[str, ...], k: int) -> "MPoly":
        zero = (0,) * len(vars)
        return cls(vars, {zero: k} if k else {})

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "MPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_const(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * len(self.vars)}

    def const_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_const():
            raise DomainError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def __add__(self, other: "MPoly") -> "MPoly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return MPoly(self.vars, t)

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        t: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MPoly(self.vars, t)

    __rmul__ = __mul__

    def exact_div_int(self, k: int) -> "MPoly":
        t = {}
        for e, c in self.terms.items():
            q, r = divmod(c, k)
            if r != 0:
                raise InvariantViolation(f"coefficient {c} not divisible by {k}")
            t[e] = q
        return MPoly(self.vars, t)

    def subst(self, values: dict[str, int]):
        """Specialize variables to integers; returns int if all vars bound, else MPoly."""
        remaining = tuple(v for v in self.vars if v not in values)
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            coef = c
            new_e = []
            for v, exp in zip(self.vars, e):
                if v in values:
                    coef *= values[v] ** exp
                else:
                    new_e.append(exp)
            key = tuple(new_e)
            out[key] = out.get(key, 0) + coef
        if not remaining:
            return out.get((), 0)
        return MPoly(remaining, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mon = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            if mon:
                parts.append(f"{c}*{mon}" if abs(c) != 1 else ("-" + mon if c < 0 else mon))
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# coefficient ring adapters
# ---------------------------------------------------------------------------


class Ring:
    """Constants and exact division; arithmetic is the elements' own."""

    name: str = "?"
    characteristic: int = 0

    def from_int(self, k: int):
        raise NotImplementedError

    def exact_div(self, a, b):
        """a / b when exact in the ring; InvariantViolation otherwise."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _ZZ(Ring):
    name = "ZZ"

    def from_int(self, k):
        return int(k)

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r != 0:
            raise InvariantViolation(f"non-exact division {a}/{b} in ZZ")
        return q


class _QQ(Ring):
    name = "QQ"

    def from_int(self, k):
        return Fraction(k)

    def exact_div(self, a, b):
        if b == 0:
            raise InvariantViolation("division by zero in QQ")
        return Fraction(a) / b


class Fp(Ring):
    def __init__(self, p: int):
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p

    def from_int(self, k):
        return k % self.p

    def exact_div(self, a, b):
        if b % self.p == 0:
            raise InvariantViolation("division by zero residue")
        return a * pow(b, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class MPolyRing(Ring):
    def __init__(self, vars: tuple[str, ...]):
        self.vars = tuple(vars)
        self.name = "Z[" + ",".join(self.vars) + "]"

    def from_int(self, k):
        return MPoly.const(self.vars, k)

    def var(self, name: str) -> MPoly:
        return MPoly.var(self.vars, name)

    def exact_div(self, a: MPoly, b: MPoly) -> MPoly:
        if b.is_const():
            return a.exact_div_int(b.const_value())
        raise InvariantViolation("exact_div in Z[...] supported only for constant divisors")

    def __eq__(self, other):
        return isinstance(other, MPolyRing) and other.vars == self.vars

    def __hash__(self):
        return hash(("MPolyRing", self.vars))


ZZ = _ZZ()
QQ = _QQ()

ZAB = MPolyRing(("A", "B"))


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactPoly:
    """Dense univariate polynomial; coeffs low-degree-first, normalized."""

    ring: Ring
    coeffs: tuple

    @classmethod
    def make(cls, ring: Ring, coeffs) -> "ExactPoly":
        p = ring.characteristic
        cs = [c % p for c in coeffs] if p else list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return cls(ring, tuple(cs))

    @classmethod
    def from_ints(cls, ring: Ring, ints) -> "ExactPoly":
        return cls.make(ring, [ring.from_int(k) for k in ints])

    @classmethod
    def const(cls, ring: Ring, k) -> "ExactPoly":
        return cls.make(ring, [k])

    @classmethod
    def x(cls, ring: Ring) -> "ExactPoly":
        return cls.make(ring, [ring.from_int(0), ring.from_int(1)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            return self.ring.from_int(0)
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.from_int(0)

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return ExactPoly.make(self.ring, [x + y for x, y in zip(a, b)] + list(a[len(b) :]))

    def __neg__(self) -> "ExactPoly":
        return ExactPoly.make(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ExactPoly(self.ring, ())
        out = [self.ring.from_int(0)] * (len(a) + len(b) - 1)
        n = len(b)
        for i, c in enumerate(a):
            if c:
                out[i : i + n] = [o + c * d for o, d in zip(out[i : i + n], b)]
        return ExactPoly.make(self.ring, out)

    def scale(self, k) -> "ExactPoly":
        return ExactPoly.make(self.ring, [c * k for c in self.coeffs])

    def exact_div_scalar(self, k) -> "ExactPoly":
        r = self.ring
        return ExactPoly.make(r, [r.exact_div(c, k) for c in self.coeffs])

    def derivative(self) -> "ExactPoly":
        return ExactPoly.make(self.ring, [i * c for i, c in enumerate(self.coeffs[1:], 1)])

    def evaluate(self, x):
        """Horner evaluation at a ring element (or int/Fraction compatible
        value); over F_p the value is a reduced residue."""
        p = self.ring.characteristic
        acc = self.ring.from_int(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if p:
                acc %= p
        return acc

    def divmod_exact(self, other: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        """Long division where every leading-coefficient step must stay in the ring.

        One quotient coefficient per step; the top term it cancels is dropped
        without being computed, so F_p remainders may run unreduced until make.
        """
        r = self.ring
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        d = other.coeffs
        dd, dlc = len(d) - 1, d[-1]
        rem = list(self.coeffs)
        if len(rem) <= dd:
            return ExactPoly(r, ()), self
        quo = []
        for k in range(len(rem) - dd - 1, -1, -1):
            c = r.exact_div(rem.pop(), dlc)
            quo.append(c)
            if c:
                rem[k : k + dd] = [x - c * y for x, y in zip(rem[k : k + dd], d)]
        return ExactPoly.make(r, quo[::-1]), ExactPoly.make(r, rem)

    def exact_div(self, other: "ExactPoly") -> "ExactPoly":
        q, rem = self.divmod_exact(other)
        if not rem.is_zero():
            raise InvariantViolation(
                f"expected exact polynomial division, remainder degree {rem.degree()}"
            )
        return q

    def mod(self, other: "ExactPoly") -> "ExactPoly":
        return self.divmod_exact(other)[1]

    def monic(self) -> "ExactPoly":
        """Monic normalization (QQ/Fp only)."""
        if self.is_zero():
            raise DomainError("zero polynomial has no monic form")
        r = self.ring
        return ExactPoly.make(r, [r.exact_div(c, self.lc()) for c in self.coeffs])

    def map_coeffs(self, target: Ring, fn) -> "ExactPoly":
        return ExactPoly.make(target, [fn(c) for c in self.coeffs])

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            term = f"({c})" if not isinstance(c, (int, Fraction)) else str(c)
            if i > 1:
                parts.append(f"{term}*X^{i}")
            elif i == 1:
                parts.append(f"{term}*X")
            else:
                parts.append(term)
        return "Poly(" + " + ".join(parts) + f" over {self.ring.name})"


def poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic gcd in QQ[X] or F_p[X] (the zero polynomial when a = b = 0)."""
    if a.ring != b.ring or not (a.ring is QQ or isinstance(a.ring, Fp)):
        raise DomainError("poly_gcd requires two polynomials over QQ or over one F_p")
    while not b.is_zero():
        a, b = b, a.mod(b)
    return a if a.is_zero() else a.monic()


def ext_gcd_qq(a: ExactPoly, b: ExactPoly) -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """(g, s, t) with s*a + t*b = g, g monic, in QQ[X]."""
    zero = ExactPoly.make(QQ, [])
    one = ExactPoly.const(QQ, Fraction(1))
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod_exact(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.lc()
    inv = Fraction(1) / lc
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)
