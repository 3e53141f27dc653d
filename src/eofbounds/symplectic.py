"""Phase-space conventions, the physicality tolerance and small matrix utilities.

Conventions
-----------
Mode ordering is (x1, p1, x2, p2) and units are vacuum-normalized, so the
vacuum covariance matrix is the identity and a covariance matrix is
physical iff its smallest symplectic eigenvalue is >= 1.
"""

from __future__ import annotations

import numpy as np

#: Default tolerance on the minimum eigenvalue for all PSD checks.
PSD_TOL = 1e-10


def least_mu_minus(scale, tol: float = PSD_TOL):
    """Least computed mu_minus taken as physical, for largest matrix entry `scale`.

    1 - tol, less the roundoff of mu_minus: computed by `states._spectra`
    on the standard form solved from the invariants, pure states came out
    up to 3.3 eps scale^2 below 1 (40000 TMSV states, r up to 3, half in
    local frames squeezed up to 1.5), so 16 eps scale^2 is ample.
    """
    return 1.0 - tol - 16.0 * np.finfo(float).eps * np.square(scale)


#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m^T)/2 as a fresh float array, summed by
    halves where asymmetric (or zero, for its sign) so that no finite entry overflows."""
    m = np.asarray(m, dtype=float)
    return np.where((m == m.T) & (m != 0.0), m, m / 2.0 + m.T / 2.0)
