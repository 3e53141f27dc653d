"""Entanglement of symmetric two-mode Gaussian states from their PPT eigenvalue.

All values are in nats (natural logarithm).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Conversion factor from nats to bits.
LN2 = math.log(2.0)


def entanglement_entropy_vec(nu: np.ndarray) -> np.ndarray:
    """Entanglement of symmetric Gaussian states from their PPT eigenvalues.

    For the smallest symplectic eigenvalue nu of the partially transposed
    covariance matrix this is

        c+(nu) ln c+(nu) - c-(nu) ln c-(nu),   c+-(nu) = (nu^-1/2 +- nu^1/2)^2 / 4,

    clamped to 0 for nu >= 1 (separable argument); strictly decreasing on
    (0, 1).  It equals the entropy of entanglement of a two-mode squeezed
    vacuum when nu = exp(-2r).  Elementwise; non-positive entries map to inf.
    """
    nu = np.asarray(nu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rt = np.sqrt(nu)
        cp = (1.0 / rt + rt) ** 2 / 4.0
        cm = (1.0 / rt - rt) ** 2 / 4.0
        out = cp * np.log(cp) - cm * np.log(cm)
    return np.where(nu >= 1.0, 0.0, np.where(nu <= 0.0, np.inf, out))


def entanglement_entropy(nu: float) -> float:
    """`entanglement_entropy_vec` of one PPT eigenvalue.

    Raises
    ------
    DomainError
        If nu is not positive (nu <= 0 or NaN).
    """
    if not nu > 0.0:
        raise DomainError(f"argument must be positive, got {nu}")
    return float(entanglement_entropy_vec(nu))
