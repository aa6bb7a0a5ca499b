"""Exact-arithmetic toolkit for elliptic curves over Q at desk scale:
Weierstrass invariants and reduction types, division-polynomial identities,
finite-field group structure, rational torsion, normalized alpha traces in
torsion fields, Galois-image decision rules, and lifting plans.
"""

from .curves import (
    Invariants,
    LongModel,
    ReductionReport,
    ShortModel,
    bad_primes,
    invariants,
    minimize_short,
    reduction_report,
    to_short,
)
from .errors import (
    BadReductionError,
    BudgetError,
    DomainError,
    InvariantViolation,
    ShaScopeError,
    SingularCubicError,
)

__version__ = "0.1.0"

__all__ = [
    "Invariants",
    "LongModel",
    "ReductionReport",
    "ShortModel",
    "bad_primes",
    "invariants",
    "minimize_short",
    "reduction_report",
    "to_short",
    "BadReductionError",
    "BudgetError",
    "DomainError",
    "InvariantViolation",
    "ShaScopeError",
    "SingularCubicError",
    "__version__",
]
