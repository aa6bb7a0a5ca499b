"""Error hierarchy shared by all modules.

Exit-code mapping used by the CLI: DomainError -> 2, BudgetError -> 3.
InvariantViolation signals an internal contradiction (a divisibility or
certificate that must hold failed) and is never caught silently.
"""


class ShaScopeError(Exception):
    """Base class for all library errors."""


class DomainError(ShaScopeError):
    """Input outside the mathematical domain of an operation."""


class BudgetError(ShaScopeError):
    """A budget ran out: the caller's factoring effort, or a fixed one
    (divpoly.DEGREE_CEILING, divpoly.TOP_BITS_CEILING, divpoly.ALPHA_N_CEILING,
    cli.MAX_N_CEILING, ffcurve.ORDER_CEILING, liftkit.MAX_HENSEL_DEPTH,
    galoisrules.SCAN_BOUND_CEILING)."""


class InvariantViolation(ShaScopeError):
    """An identity the library relies on failed at runtime; indicates a bug upstream."""


class SingularCubicError(DomainError):
    """A Weierstrass model is singular (discriminant zero). The message is
    "singular cubic (node, c4=...)" when c4 != 0, else "singular cubic (cusp, c4=0)"."""

    def __init__(self, c4):
        super().__init__(f"singular cubic ({'node' if c4 else 'cusp'}, c4={c4})")


class BadReductionError(DomainError):
    """Reduction mod the prime p is singular; the message is "bad reduction at p"."""

    def __init__(self, p):
        super().__init__(f"bad reduction at {p}")
