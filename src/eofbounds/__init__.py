"""Bounds for the entanglement of formation of two-mode Gaussian states."""

from .bounds import (
    BoundFlags,
    BoundReport,
    bound_report,
    eeof,
    eof_symmetric,
    is_entangled,
    natural_bounds,
    searched_upper_bound,
    sigma_lower_bound,
)
from .entanglement import entanglement_entropy
from .errors import (
    DegenerateInvariantsError,
    DomainError,
    EofBoundsError,
    NonPhysicalStateError,
    NonPositiveMatrixError,
    NotSymmetricError,
    ParseError,
)
from .geof import GeofResult
from .states import (
    CovMat,
    Invariants,
    StandardForm,
    invariants,
    require_physical,
    standard_form,
    standard_form_from_invariants,
)
from .symplectic import (
    J2,
    J4,
    PSD_TOL,
    SympSpectrum,
    symmetrize,
    symplectic_spectrum,
)

__version__ = "0.1.0"
