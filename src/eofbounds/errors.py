"""Exception types shared across the package."""


class EofBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EofBoundsError, ValueError):
    """Argument lies outside the mathematical domain of a function.

    Among them a standard form with c1 < |c2|, and invariants that admit
    no standard form (I1 or I2 not positive, or no real correlations).
    """


class NonPhysicalStateError(EofBoundsError):
    """State fails the physicality test: its standard form is not positive
    definite, or its mu_minus is below 1 (as it is where min(a, b) < 1),
    beyond psd_tol.  The message gives the failing value.
    """


class ParseError(EofBoundsError):
    """Input document is malformed or fails schema validation."""
