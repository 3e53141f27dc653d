"""Two-mode Gaussian states at the covariance-matrix level.

A state is described by its 4x4 covariance matrix

    V = [[A, C], [C^T, B]]

with 2x2 blocks A, B (reduced single-mode covariances) and C
(correlations).  Local symplectic operations leave the four invariants

    I1 = det A,  I2 = det B,  I3 = det C,  I4 = Tr(A J C J B J C^T J)

unchanged (J the single-mode symplectic form), and every physical state
can be brought to the standard form A = a*I, B = b*I, C = diag(c1, c2)
with c1 >= |c2|.  This module keeps the state types, `invariants`, the
solve of that form from invariants (`_standard_forms`) and its spectra
(`_spectra`, `_least_eigenvalue`).  The physicality verdict on them is
`bounds._physical`, and `bounds.bound_report` the one route from a state
to its standard form and that verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symplectic import J2, symmetrize

# Slack for the c1 >= |c2| convention and for the I4/(a b) >= 2|I3| test
# of `_standard_forms`, absorbing roundoff from invariant arithmetic.
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
    """Locally reduced covariance parameters (a, b, c1, c2), c1 >= |c2|.

    Only the structure is checked here.  a, b >= 1 is a physical condition
    (min(a, b) >= nu_minus), judged with the rest of physicality by the
    caller's test at its psd_tol.
    """

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        if not all(map(math.isfinite, self)):
            raise DomainError(f"standard form contains non-finite entries: {tuple(self)}")
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
        if not np.isfinite(m).all():
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
    """Local symplectic invariants of a two-mode covariance matrix (inf or NaN on overflow)."""
    a, b, c = v.block_a, v.block_b, v.block_c
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's matmul, not plain floats: those round otherwise and move printed I4 digits.
        i4 = float(np.trace(a @ J2 @ c @ J2 @ b @ J2 @ c.T @ J2))
        return Invariants(_det2(a), _det2(b), _det2(c), i4)


def _spectra(a, b, c1, c2):
    """Symplectic eigenvalues (nu_minus, nu_plus) of standard forms (a, b, c1, c2).

    nu+-^2 are the eigenvalues of Vx Vp, with Vx = [[a, c1], [c1, b]] and
    Vp = [[a, c2], [c2, b]]: nu+^2 from the trace and discriminant, and
    nu-^2 = det Vx det Vp / nu+^2, which does not cancel for pure or
    strongly entangled states.  nu_minus is NaN where det Vx det Vp < 0.
    The partially transposed state is (a, b, c1, -c2).  Works on floats
    and on numpy arrays alike, under the floating-point policy of its caller
    (`bounds._standard_bounds`).
    """
    ab = a * b
    tr = a * a + b * b + 2.0 * c1 * c2
    disc = (a * a - b * b) ** 2 + 4.0 * (a * c2 + b * c1) * (a * c1 + b * c2)
    plus = (tr + np.sqrt(np.maximum(disc, 0.0))) / 2.0
    return np.sqrt((ab - c1 * c1) * (ab - c2 * c2) / plus), np.sqrt(plus)


def _least_eigenvalue(a, b, c1):
    """Least eigenvalue of standard forms, that of Vx: det Vx over the larger one.

    NaN where both vanish, which only a Vx with det Vx = 0 and a + b <= 0 has,
    and where the products overflow.  Works on floats and on numpy arrays
    alike (a product, unlike ** on floats, overflows to inf without raising),
    under the floating-point policy of its caller (`bounds.bound_report` or
    `bounds._standard_bounds`).
    """
    d = a - b
    return 2.0 * (a * b - c1 * c1) / ((a + b) + np.sqrt(d * d + 4.0 * c1 * c1))


def _standard_forms(i1, i2, i3, i4):
    """Arrays (a, b, c1, c2) solved from arrays of invariants, and the mask of standard forms.

    c1^2 and c2^2 are the roots of t^2 - s*t + I3^2 with s = I4/(a*b);
    the sign of c2 is inherited from I3 and c1 >= |c2| by construction.
    None is solved where I1 or I2 is not positive (no real a, b > 0) or
    I4/(a*b) is below 2|I3| beyond the slack (no real correlations).  a or
    b below 1 is a standard form, for the physicality test to judge.
    """
    i1, i2, i3, i4 = (np.asarray(x, dtype=float) for x in (i1, i2, i3, i4))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
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
        ok = (a * b > 0.0) & (s >= 2.0 * np.abs(i3) - _FORM_SLACK)
    return np.array((a, b, c1, c2)), ok
