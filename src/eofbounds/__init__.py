"""Bounds for the entanglement of formation of two-mode Gaussian states."""

from .bounds import BoundReport, bound_report
from .entanglement import entanglement_entropy
from .errors import DomainError, EofBoundsError, NonPhysicalStateError, ParseError
from .states import CovMat, Invariants, StandardForm, invariants
from .symplectic import PSD_TOL

__version__ = "0.1.0"
