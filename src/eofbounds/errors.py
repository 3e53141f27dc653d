"""Exception types shared across the package."""


class EofBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EofBoundsError, ValueError):
    """Argument lies outside the mathematical domain of a function."""


class NonPhysicalStateError(EofBoundsError):
    """Covariance matrix violates the uncertainty bound.

    Carries the offending smallest symplectic eigenvalue when known, so
    callers can report how badly physicality failed.
    """

    def __init__(self, message: str, mu_minus: float | None = None):
        super().__init__(message)
        self.mu_minus = mu_minus


class NotSymmetricError(EofBoundsError):
    """The two reduced blocks of the state differ beyond tolerance."""


class DegenerateInvariantsError(EofBoundsError):
    """Invariant combination admits no real standard-form solution."""


class ParseError(EofBoundsError):
    """Input document is malformed or fails schema validation."""
