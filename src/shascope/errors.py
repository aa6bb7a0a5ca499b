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
    cli.MAX_N_CEILING, ffcurve.ORDER_CEILING, liftkit.MAX_HENSEL_DEPTH)."""


class InvariantViolation(ShaScopeError):
    """An identity the library relies on failed at runtime; indicates a bug upstream."""


class SingularCubicError(DomainError):
    """Raised when a Weierstrass model is singular (discriminant zero).

    Carries c4 so callers can distinguish a node (c4 != 0) from a cusp (c4 == 0).
    """

    def __init__(self, c4, message=None):
        self.c4 = c4
        self.kind = "node" if c4 != 0 else "cusp"
        super().__init__(message or f"singular cubic ({self.kind}, c4={c4})")


class BadReductionError(DomainError):
    """Reduction mod p is singular; carries the reduction report when available."""

    def __init__(self, p, report=None, message=None):
        self.p = p
        self.report = report
        super().__init__(message or f"bad reduction at {p}")

