"""Two-mode Gaussian states at the covariance-matrix level.

A state is described by its 4x4 covariance matrix

    V = [[A, C], [C^T, B]]

with 2x2 blocks A, B (reduced single-mode covariances) and C
(correlations).  Local symplectic operations leave the four invariants

    I1 = det A,  I2 = det B,  I3 = det C,  I4 = Tr(A J C J B J C^T J)

unchanged (J the single-mode symplectic form), and every physical state
can be brought to the standard form A = a*I, B = b*I, C = diag(c1, c2)
with c1 >= |c2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInvariantsError,
    DomainError,
    NonPhysicalStateError,
    NonPositiveMatrixError,
)
from .symplectic import J2, PSD_TOL, least_mu_minus, symmetrize, symplectic_spectrum

# Slack for the >= 1 and c1 >= |c2| conventions, absorbing roundoff from
# invariant arithmetic.
_FORM_SLACK = 1e-9


@dataclass(frozen=True)
class Invariants:
    """Local symplectic invariants (det A, det B, det C, trace term)."""

    i1: float
    i2: float
    i3: float
    i4: float

    def __iter__(self):
        return iter((self.i1, self.i2, self.i3, self.i4))


@dataclass(frozen=True)
class StandardForm:
    """Locally reduced covariance parameters (a, b, c1, c2), c1 >= |c2|."""

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.a < 1.0 - _FORM_SLACK or self.b < 1.0 - _FORM_SLACK:
            raise DomainError(
                f"standard form requires a, b >= 1, got a={self.a}, b={self.b}"
            )
        if self.c1 < abs(self.c2) - _FORM_SLACK:
            raise DomainError(
                f"standard form requires c1 >= |c2|, got c1={self.c1}, c2={self.c2}"
            )

    def to_covmat(self) -> "CovMat":
        return CovMat.from_standard_form(self.a, self.b, self.c1, self.c2)

    def __iter__(self):
        return iter((self.a, self.b, self.c1, self.c2))


@dataclass(frozen=True)
class CovMat:
    """Immutable 4x4 covariance matrix; symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"covariance matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("covariance matrix contains non-finite entries")
        m = symmetrize(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def block_a(self) -> np.ndarray:
        return self.matrix[:2, :2]

    @property
    def block_b(self) -> np.ndarray:
        return self.matrix[2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        return self.matrix[:2, 2:]

    @classmethod
    def from_blocks(cls, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> "CovMat":
        m = np.zeros((4, 4))
        m[:2, :2] = a
        m[2:, 2:] = b
        m[:2, 2:] = c
        m[2:, :2] = np.asarray(c, dtype=float).T
        return cls(m)

    @classmethod
    def from_standard_form(cls, a: float, b: float, c1: float, c2: float) -> "CovMat":
        return cls.from_blocks(
            a * np.eye(2), b * np.eye(2), np.diag([float(c1), float(c2)])
        )

    @classmethod
    def from_invariants(
        cls, i1: float, i2: float, i3: float, i4: float, tol: float = 1e-9
    ) -> "CovMat":
        return standard_form_from_invariants(Invariants(i1, i2, i3, i4), tol).to_covmat()

    @classmethod
    def vacuum(cls) -> "CovMat":
        return cls(np.eye(4))

    @classmethod
    def two_mode_squeezed(cls, r: float) -> "CovMat":
        """Pure two-mode squeezed vacuum with squeezing parameter r."""
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        return cls.from_standard_form(ch, ch, sh, -sh)

    def conjugate(self, s: np.ndarray) -> "CovMat":
        """Return S V S^T for a (symplectic) 4x4 matrix S."""
        s = np.asarray(s, dtype=float)
        return CovMat(s @ self.matrix @ s.T)


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def invariants(v: CovMat) -> Invariants:
    """Local symplectic invariants of a two-mode covariance matrix."""
    a, b, c = v.block_a, v.block_b, v.block_c
    i4 = float(np.trace(a @ J2 @ c @ J2 @ b @ J2 @ c.T @ J2))
    return Invariants(_det2(a), _det2(b), _det2(c), i4)


def _spectra(a, b, c1, c2):
    """Symplectic eigenvalues (nu_minus, nu_plus) of standard forms (a, b, c1, c2).

    nu+-^2 are the eigenvalues of Vx Vp, with Vx = [[a, c1], [c1, b]] and
    Vp = [[a, c2], [c2, b]]: nu+^2 from the trace and discriminant, and
    nu-^2 = det Vx det Vp / nu+^2, which does not cancel for pure or
    strongly entangled states.  nu_minus is NaN where det Vx det Vp < 0.
    The partially transposed state is (a, b, c1, -c2).  Works on floats
    and on numpy arrays alike.
    """
    ab = a * b
    tr = a * a + b * b + 2.0 * c1 * c2
    disc = (a * a - b * b) ** 2 + 4.0 * (a * c2 + b * c1) * (a * c1 + b * c2)
    with np.errstate(invalid="ignore", divide="ignore"):
        plus = (tr + np.sqrt(np.maximum(disc, 0.0))) / 2.0
        return np.sqrt((ab - c1 * c1) * (ab - c2 * c2) / plus), np.sqrt(plus)


def require_physical(v: CovMat, tol: float = PSD_TOL) -> float:
    """Return mu_minus of v, raising NonPhysicalStateError when below 1.

    Uses the general spectral route `symplectic_spectrum`, which takes
    any frame.  The threshold `least_mu_minus` allows the roundoff of that
    route, so pure states pass at tol = 0.
    """
    try:
        spec = symplectic_spectrum(v.matrix, tol)
    except NonPositiveMatrixError as exc:
        raise NonPhysicalStateError(str(exc)) from exc
    if spec.mu_minus < least_mu_minus(np.max(np.abs(v.matrix)), tol):
        raise NonPhysicalStateError(
            f"state violates the uncertainty bound: mu_minus = {spec.mu_minus:.12g} < 1",
            mu_minus=spec.mu_minus,
        )
    return spec.mu_minus


def _standard_forms(i1, i2, i3, i4, tol: float = 1e-9):
    """Arrays (a, b, c1, c2) solved from arrays of invariants.

    c1^2 and c2^2 are the roots of t^2 - s*t + I3^2 with s = I4/(a*b);
    the sign of c2 is inherited from I3 and c1 >= |c2| by construction.
    All four are NaN where no standard form exists: I1 or I2 below 1
    beyond the slack, or I4/(a*b) < 2|I3| beyond tol (no real
    correlations).  a or b within the slack below 1 is returned as it is,
    for the physicality test to judge.
    """
    i1, i2, i3, i4 = (np.asarray(x, dtype=float) for x in (i1, i2, i3, i4))
    with np.errstate(invalid="ignore", divide="ignore"):
        a, b = np.sqrt(i1), np.sqrt(i2)
        s = i4 / (a * b)
        disc = np.maximum(s * s - 4.0 * i3 * i3, 0.0)
        # Below the cancellation noise floor of s^2 - (2 I3)^2 the split
        # is c1 = |c2| to within resolution.  Solving through the noisy
        # discriminant would skew c1 vs |c2| by ~1e-8 and can push the
        # rebuilt matrix of a pure state below physicality.
        flat = disc < 1e-13 * (s * s + 4.0 * i3 * i3)
        root = np.where(flat, 0.0, np.sqrt(disc))
        c1 = np.sqrt(np.maximum((s + root) / 2.0, 0.0))
        c2 = np.copysign(np.where(flat, c1, np.sqrt(np.maximum((s - root) / 2.0, 0.0))), i3)
        c2 = np.where(i3 == 0.0, 0.0, c2)
        ok = (i1 >= (1.0 - _FORM_SLACK) ** 2) & (i2 >= (1.0 - _FORM_SLACK) ** 2)
        ok &= s >= 2.0 * np.abs(i3) - tol
    keep = np.where(ok, 1.0, np.nan)
    return a * keep, b * keep, c1 * keep, c2 * keep


def standard_form_from_invariants(
    inv: Invariants, tol: float = 1e-9
) -> StandardForm:
    """Solve (a, b, c1, c2) from the invariants (see `_standard_forms`).

    Raises
    ------
    DegenerateInvariantsError
        If I1 or I2 is below 1, or I4/(a*b) < 2|I3| beyond tol (no real
        correlations).
    """
    a, b, c1, c2 = (float(x) for x in _standard_forms(*inv, tol))
    if math.isnan(c1):
        raise DegenerateInvariantsError(
            f"no standard form: need I1, I2 >= 1 and I4/sqrt(I1*I2) >= 2|I3|, got {inv}"
        )
    return StandardForm(a, b, c1, c2)


def standard_form(v: CovMat, tol: float = 1e-9) -> StandardForm:
    """Reduce a physical covariance matrix to its standard form parameters."""
    return standard_form_from_invariants(invariants(v), tol)
