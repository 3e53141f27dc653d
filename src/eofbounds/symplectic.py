"""Dense 4x4 symmetric-matrix utilities for two-mode phase space.

Conventions
-----------
Mode ordering is (x1, p1, x2, p2) and units are vacuum-normalized, so the
vacuum covariance matrix is the identity and a covariance matrix is
physical iff its smallest symplectic eigenvalue is >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveMatrixError

#: Default tolerance on the minimum eigenvalue for all PSD checks.
PSD_TOL = 1e-10


def least_mu_minus(scale, tol: float = PSD_TOL):
    """Least computed mu_minus taken as physical, for largest matrix entry `scale`.

    1 - tol, less the roundoff of mu_minus: pure states came out up to
    12 eps scale^2 below 1, so 16 eps scale^2 is allowed.
    """
    return 1.0 - tol - 16.0 * np.finfo(float).eps * np.square(scale)


#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)

#: Two-mode symplectic form, one J2 block per mode.
J4 = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
J4.setflags(write=False)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m^T)/2 as a fresh float array."""
    m = np.asarray(m, dtype=float)
    return (m + m.T) / 2.0


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Conjugate a 4x4 matrix by the partial transposition of mode 2.

    Flips the sign of p2: of row 3 and of column 3, so the diagonal
    entry keeps its sign.  Involutive; for a standard-form covariance
    matrix it flips the sign of the second correlation entry c2.
    """
    m = np.array(m, dtype=float)
    m[3] *= -1.0
    m[:, 3] *= -1.0
    return m


@dataclass(frozen=True)
class SympSpectrum:
    """Symplectic eigenvalue pair of a two-mode matrix, sorted ascending."""

    mu_minus: float
    mu_plus: float

    def __iter__(self):
        return iter((self.mu_minus, self.mu_plus))


def symplectic_spectrum(m: np.ndarray, tol: float = PSD_TOL) -> SympSpectrum:
    """Symplectic eigenvalues of a symmetric positive-definite 4x4 matrix.

    Computed as the positive eigenvalues of i*J*m via the similar
    Hermitian matrix i*sqrt(m)*J*sqrt(m), which keeps the solver in
    well-conditioned Hermitian territory.

    Raises
    ------
    NonPositiveMatrixError
        If m is not positive definite within tol.
    """
    m = symmetrize(m)
    w, q = np.linalg.eigh(m)
    if w[0] <= tol:
        raise NonPositiveMatrixError(
            f"matrix is not positive definite: min eigenvalue {w[0]:.3e}"
        )
    root = (q * np.sqrt(w)) @ q.T
    herm = 1j * (root @ J4 @ root)
    mus = np.linalg.eigvalsh(herm)  # sorted: -mu+, -mu-, mu-, mu+
    return SympSpectrum(float(mus[2]), float(mus[3]))
