"""Entanglement-of-formation functions for symmetric states and the estimator.

All values are in nats (natural logarithm).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NotSymmetricError
from .states import CovMat, ppt_eigenvalues, require_physical
from .symplectic import PSD_TOL

#: Conversion factor from nats to bits.
LN2 = math.log(2.0)


def entanglement_entropy(nu: float) -> float:
    """Entanglement of a symmetric Gaussian state from its PPT eigenvalue.

    For the smallest symplectic eigenvalue nu of the partially transposed
    covariance matrix this is

        c+(nu) ln c+(nu) - c-(nu) ln c-(nu),   c+-(nu) = (nu^-1/2 +- nu^1/2)^2 / 4,

    clamped to 0 for nu >= 1 (separable argument); strictly decreasing on
    (0, 1).  It equals the entropy of entanglement of a two-mode squeezed
    vacuum when nu = exp(-2r).

    Raises
    ------
    DomainError
        If nu <= 0.
    """
    if nu <= 0.0:
        raise DomainError(f"argument must be positive, got {nu}")
    if nu >= 1.0:
        return 0.0
    rt = math.sqrt(nu)
    c_plus = (1.0 / rt + rt) ** 2 / 4.0
    c_minus = (1.0 / rt - rt) ** 2 / 4.0
    # c_minus > 0 strictly for nu < 1, so both logs are finite.
    return c_plus * math.log(c_plus) - c_minus * math.log(c_minus)


def entanglement_entropy_vec(nu: np.ndarray) -> np.ndarray:
    """Vectorized `entanglement_entropy`; non-positive entries map to inf."""
    nu = np.asarray(nu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rt = np.sqrt(nu)
        cp = (1.0 / rt + rt) ** 2 / 4.0
        cm = (1.0 / rt - rt) ** 2 / 4.0
        out = cp * np.log(cp) - cm * np.log(cm)
    return np.where(nu >= 1.0, 0.0, np.where(nu <= 0.0, np.inf, out))


def blocks_symmetric(v: CovMat, tol: float = 1e-9) -> bool:
    """True iff the two reduced blocks agree entrywise within tol."""
    return bool(np.max(np.abs(v.block_a - v.block_b)) <= tol)


def eof_symmetric(v: CovMat, tol: float = 1e-9, psd_tol: float = PSD_TOL) -> float:
    """Exact entanglement of formation of a symmetric two-mode Gaussian state.

    Raises
    ------
    NotSymmetricError
        If the reduced blocks differ by more than tol.
    NonPhysicalStateError
        If v is not physical.
    """
    if not blocks_symmetric(v, tol):
        dev = float(np.max(np.abs(v.block_a - v.block_b)))
        raise NotSymmetricError(f"reduced blocks differ by {dev:.3e} > {tol:.3e}")
    require_physical(v, psd_tol)
    return entanglement_entropy(ppt_eigenvalues(v, psd_tol).mu_minus)


def eeof(v: CovMat, psd_tol: float = PSD_TOL) -> float:
    """EoF estimator: the symmetric-state formula applied to a general state.

    Sandwiched by the same symmetric-state bounds as the true EoF, but not
    proven equal to it for non-symmetric states.
    """
    require_physical(v, psd_tol)
    return entanglement_entropy(ppt_eigenvalues(v, psd_tol).mu_minus)
