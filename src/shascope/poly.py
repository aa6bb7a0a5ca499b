"""Dense exact polynomials over pluggable coefficient rings.

ExactPoly stores coefficients low-degree-first over one of:
  ZZ       -- Python int
  Fp(p)    -- ints reduced mod p
  ZAB      -- MPoly, weighted-homogeneous elements of Z[A,B] (A weight 2,
              B weight 3), each one dense int row; the symbolic ring

Coefficients compute with Python's +, - and *, and a coefficient is zero
when it is falsy. A Ring supplies only constants (from_int) and exact
division (exact_div). ExactPoly.make is the one place F_p reduces: products
and sums run on plain ints and each output coefficient is taken mod p once.

Products over ZZ and F_p, and the int rows of MPoly, run one integer
kernel: Karatsuba-Ofman above _KARATSUBA_CUTOFF terms, with a squaring path
when both operands are the same list, over the schoolbook _mul_rows. Z[A,B]
products call _mul_rows directly: a0 + a1 would add MPolys of different
weights.

Division is exact-by-construction: divmod steps that would leave the ring
raise, and exact_div asserts a zero remainder.
"""

from __future__ import annotations

from operator import add, sub

from .errors import DomainError, InvariantViolation, refuse_assignment


# ---------------------------------------------------------------------------
# weighted-homogeneous elements of Z[A,B] (weights A:2, B:3)
# ---------------------------------------------------------------------------


def _mpoly(w, row: tuple) -> "MPoly":
    """An MPoly from a trimmed row that fits weight w, unchecked."""
    m = object.__new__(MPoly)
    m.w, m.row = (w, row) if row else (None, ())
    return m


class MPoly:
    """Immutable weighted-homogeneous element of Z[A,B], A of weight 2 and B of 3.

    An element of weight w is one dense int row: row[s] is the coefficient of
    A^i B^j with j = (w mod 2) + 2s and i = (w - 3j)/2. The zero element has
    weight None and an empty row. + and - take equal weights or a zero operand
    and raise InvariantViolation otherwise; * adds the weights.
    """

    __slots__ = ("w", "row")

    def __init__(self, w: int, row):
        row = list(row)
        while row and not row[-1]:
            row.pop()
        if row and (w < 0 or 6 * (len(row) - 1) > w - 3 * (w % 2)):
            raise DomainError(f"{len(row)} terms do not fit weight {w}")
        self.w, self.row = (w, tuple(row)) if row else (None, ())

    def __bool__(self) -> bool:
        return bool(self.row)

    def __add__(self, other: "MPoly") -> "MPoly":
        a, b = self.row, other.row
        if not b:
            return self
        if not a:
            return other
        if self.w != other.w:
            raise InvariantViolation(f"weight {self.w} and weight {other.w} do not add")
        if len(a) < len(b):
            a, b = b, a
        row = [*map(add, a, b), *a[len(b) :]]
        while row and not row[-1]:
            row.pop()
        return _mpoly(self.w, tuple(row))

    def __neg__(self) -> "MPoly":
        return _mpoly(self.w, tuple(-c for c in self.row))

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            return _mpoly(self.w, tuple(c * other for c in self.row) if other else ())
        a, b = self.row, other.row
        if not a or not b:
            return _mpoly(None, ())
        out = _kmul(a, b)
        # two odd weights each contribute one B: the product starts at B^2
        if self.w & other.w & 1:
            out.insert(0, 0)
        return _mpoly(self.w + other.w, tuple(out))

    __rmul__ = __mul__

    def _terms(self):
        """(i, j, c) for each term c*A^i*B^j, in descending powers of A."""
        for s, c in enumerate(self.row):
            if c:
                j = self.w % 2 + 2 * s
                yield (self.w - 3 * j) // 2, j, c

    def subst(self, values: dict[str, int]) -> int:
        """The int value at A = values["A"], B = values["B"]."""
        a, b = values["A"], values["B"]
        return sum(c * a**i * b**j for i, j, c in self._terms())

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.w == other.w and self.row == other.row

    def __hash__(self):
        return hash((self.w, self.row))

    def __repr__(self) -> str:
        if not self.row:
            return "0"
        parts = []
        for i, j, c in self._terms():
            mon = "*".join(f"{v}^{k}" if k > 1 else v for v, k in (("A", i), ("B", j)) if k)
            if mon:
                parts.append(f"{c}*{mon}" if abs(c) != 1 else ("-" + mon if c < 0 else mon))
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# the multiply kernel
# ---------------------------------------------------------------------------

# Shorter operands take schoolbook rows; 12, 20 and 32 time within noise of
# each other on the f_n products of the division recursion.
_KARATSUBA_CUTOFF = 20


def _mul_rows(a, b, zero):
    """Schoolbook a*b of nonempty coefficient sequences, low degree first.

    When a is b, each cross product a_i a_j (i < j) is formed once and
    doubled, which halves the multiplications of a square.
    """
    n = len(b)
    if a is b:
        out = [zero] * (2 * n - 1)
        for i, c in enumerate(a):
            if c:
                out[2 * i] += c * c
                c += c
                row = slice(2 * i + 1, i + n)
                out[row] = [o + c * d for o, d in zip(out[row], a[i + 1 :])]
        return out
    out = [a[0] * d for d in b] + [zero] * (len(a) - 1)
    for i in range(1, len(a)):
        c = a[i]
        if c:
            out[i : i + n] = [o + c * d for o, d in zip(out[i : i + n], b)]
    return out


def _kmul(a, b) -> list:
    """a*b of nonempty int coefficient sequences by Karatsuba-Ofman.

    The longer operand is cut into chunks as long as the shorter, so every
    split is balanced; a square (a is b) recurses on squares.
    """
    if len(a) > len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if n < _KARATSUBA_CUTOFF:
        return _mul_rows(a, b, 0)
    if m > n:
        out = [0] * (n + m - 1)
        for k in range(0, m, n):
            part = _kmul(a, b[k : k + n])
            span = slice(k, k + len(part))
            out[span] = map(add, out[span], part)
        return out
    # a = a0 + X^h a1, b = b0 + X^h b1, len(a1) = len(b1) >= h
    h = n // 2
    a0, a1 = a[:h], a[h:]
    sa = [*map(add, a1, a0), *a1[h:]]
    if a is b:
        z0, z2, z1 = _kmul(a0, a0), _kmul(a1, a1), _kmul(sa, sa)
    else:
        b0, b1 = b[:h], b[h:]
        sb = [*map(add, b1, b0), *b1[h:]]
        z0, z2, z1 = _kmul(a0, b0), _kmul(a1, b1), _kmul(sa, sb)
    # z1 - z0 - z2 = a0 b1 + a1 b0; len(z1) = len(z2) >= len(z0)
    mid = [*map(sub, map(sub, z1, z2), z0), *map(sub, z1[len(z0) :], z2[len(z0) :])]
    out = [*z0, 0, *z2]
    span = slice(h, h + len(mid))
    out[span] = map(add, out[span], mid)
    return out


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

    def __reduce__(self):  # copy and pickle return the module's ZZ, as rings compare by identity
        return "ZZ"

    def from_int(self, k):
        return int(k)

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r != 0:
            raise InvariantViolation(f"non-exact division {a}/{b} in ZZ")
        return q


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
    """Z[A,B] with weighted-homogeneous MPoly elements."""

    name = "Z[A,B]"

    def __reduce__(self):  # copy and pickle return the module's ZAB
        return "ZAB"

    def from_int(self, k):
        return MPoly(0, (k,))

    def exact_div(self, a: MPoly, b: MPoly) -> MPoly:
        if b.w != 0:
            raise InvariantViolation("exact_div in Z[A,B] supported only for nonzero constant divisors")
        (k,) = b.row
        q = [divmod(c, k) for c in a.row]
        if any(r for _, r in q):
            raise InvariantViolation(f"coefficients of {a!r} not divisible by {k}")
        return _mpoly(a.w, tuple(c for c, _ in q))


ZZ = _ZZ()

ZAB = MPolyRing()


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


class ExactPoly:
    """Dense univariate polynomial; coeffs low-degree-first, normalized.
    Immutable; equal, and hashing alike, when ring and coeffs are."""

    __slots__ = ("ring", "coeffs")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, ring: Ring, coeffs: tuple):
        _set_ring(self, ring)  # the slots' own setters, past __setattr__
        _set_coeffs(self, coeffs)

    def __eq__(self, other):
        if type(other) is not ExactPoly:
            return NotImplemented
        return (self.ring, self.coeffs) == (other.ring, other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        return f"ExactPoly(ring={self.ring!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return ExactPoly, (self.ring, self.coeffs)

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
        r, a, b = self.ring, self.coeffs, other.coeffs
        if not a or not b:
            return ExactPoly(r, ())
        # a square arrives as a is b, which both kernels test
        return ExactPoly.make(r, _mul_rows(a, b, r.from_int(0)) if r is ZAB else _kmul(a, b))

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


_set_ring, _set_coeffs = ExactPoly.ring.__set__, ExactPoly.coeffs.__set__
