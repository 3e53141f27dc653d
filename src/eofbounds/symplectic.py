"""Phase-space conventions: the default tolerance `PSD_TOL`, `J2` and `symmetrize`.

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


#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m^T)/2 as a fresh float array, summed by
    halves where asymmetric (or zero, for its sign) so that no finite entry overflows."""
    m = np.asarray(m, dtype=float)
    return np.where((m == m.T) & (m != 0.0), m, m / 2.0 + m.T / 2.0)
