"""Bounds for the entanglement of formation of two-mode Gaussian states."""

from .bounds import BoundReport, bound_report, eof_symmetric
from .entanglement import entanglement_entropy
from .errors import (
    DomainError,
    EofBoundsError,
    NonPhysicalStateError,
    NotSymmetricError,
    ParseError,
)
from .geof import GeofResult
from .states import CovMat, Invariants, StandardForm, invariants, standard_form
from .symplectic import J2, PSD_TOL, symmetrize

__version__ = "0.1.0"
