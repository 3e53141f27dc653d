import math
from dataclasses import dataclass

import numpy as np
import pytest

from eofbounds.bounds import bound_report
from eofbounds.errors import NonPhysicalStateError
from eofbounds.states import StandardForm, _spectra
from eofbounds.symplectic import PSD_TOL, symmetrize

#: Two-mode symplectic form, one J2 block per mode.
J4 = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
J4.setflags(write=False)


@dataclass(frozen=True)
class SympSpectrum:
    """Symplectic eigenvalue pair of a two-mode matrix, sorted ascending."""

    mu_minus: float
    mu_plus: float

    def __iter__(self):
        return iter((self.mu_minus, self.mu_plus))


def symplectic_spectrum(m: np.ndarray, tol: float = PSD_TOL) -> SympSpectrum:
    """Symplectic eigenvalues of a symmetric positive-definite 4x4 matrix.

    The reference the tests compare the package's closed forms against:
    the positive eigenvalues of i*J*m, computed in any frame via the
    similar Hermitian matrix i*sqrt(m)*J*sqrt(m).  Raises ValueError if m
    is not positive definite within tol.
    """
    m = symmetrize(m)
    w, q = np.linalg.eigh(m)
    if w[0] <= tol:
        raise ValueError(f"matrix is not positive definite: min eigenvalue {w[0]:.3e}")
    root = (q * np.sqrt(w)) @ q.T
    herm = 1j * (root @ J4 @ root)
    mus = np.linalg.eigvalsh(herm)  # sorted: -mu+, -mu-, mu-, mu+
    return SympSpectrum(float(mus[2]), float(mus[3]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pd(rng, n=4, scale=1.0, shift=0.1):
    """Random symmetric positive-definite matrix."""
    g = rng.normal(size=(n, n)) * scale
    return g @ g.T + shift * np.eye(n)


def loewner_ge(m1, m2, tol=1e-10):
    """Loewner order oracle: m1 >= m2 iff eigvalsh(m1 - m2) >= -tol."""
    d = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    return bool(np.linalg.eigvalsh((d + d.T) / 2.0)[0] >= -tol)


def random_psd(rng, n=4, scale=1.0):
    """Random symmetric positive-semidefinite matrix."""
    g = rng.normal(size=(n, n)) * scale
    return g @ g.T


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


def is_physical(v, tol=PSD_TOL):
    """True iff `bound_report` accepts v."""
    try:
        bound_report(v, include_geof=False, psd_tol=tol)
    except NonPhysicalStateError:
        return False
    return True


def unphysical_matrices():
    """(matrix, message) of three unphysical matrices and the check's message.

    The first two are the state (1.2, 1.5, 0.3, -0.2) as -V and with both
    local blocks negated, [[-A, C], [C^T, -B]]: not positive, but with the
    invariants of V.  The third, 0.5 I, is positive but below the vacuum:
    its standard form (0.5, 0.5, 0, 0) fails the uncertainty bound.
    """
    v = np.array(StandardForm(1.2, 1.5, 0.3, -0.2).to_covmat().matrix)
    blocks = v * np.kron([[-1.0, 1.0], [1.0, -1.0]], np.ones((2, 2)))
    not_positive = "matrix is not positive definite: min eigenvalue -1.685e+00"
    return [(-v, not_positive), (blocks, not_positive),
            (0.5 * np.eye(4), "state violates the uncertainty bound: mu_minus = 0.5 < 1")]


def random_sp2(rng: np.random.Generator, squeeze_max: float = 0.6) -> np.ndarray:
    """Random single-mode symplectic: rotation * squeezer * rotation."""

    def rot(t: float) -> np.ndarray:
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s], [-s, c]])

    s = rng.uniform(-squeeze_max, squeeze_max)
    z = np.diag([math.exp(s), math.exp(-s)])
    return rot(rng.uniform(0, 2 * math.pi)) @ z @ rot(rng.uniform(0, 2 * math.pi))


def random_local_symplectic(
    rng: np.random.Generator, squeeze_max: float = 0.6
) -> np.ndarray:
    """Random S_A (+) S_B acting locally on the two modes."""
    s = np.zeros((4, 4))
    s[:2, :2] = random_sp2(rng, squeeze_max)
    s[2:, 2:] = random_sp2(rng, squeeze_max)
    return s


def random_standard_form(
    rng: np.random.Generator,
    a_max: float = 3.0,
    symmetric: bool = False,
    entangled: bool | None = None,
    physical_upper: bool = False,
    min_asymmetry: float = 0.0,
    gap: float = 1e-6,
    phys_margin: float = 1e-8,
    max_tries: int = 200_000,
) -> StandardForm:
    """Rejection-sample standard-form parameters of a physical state.

    Draws a, b uniformly from [1, a_max] and correlations (c1, c2) with
    c1 >= |c2|, keeping only draws whose smallest symplectic eigenvalue
    stays >= 1 + phys_margin, so every returned state is physical by
    construction.

    Parameters
    ----------
    symmetric : force a == b.
    entangled : if True/False, additionally require the PPT eigenvalue to
        sit below/above 1 by at least `gap`; None leaves it free.
    physical_upper : also require the symmetric state built from
        the smaller block (the natural upper-bound state) to be physical.
    min_asymmetry : lower bound on |a - b| (ignored when symmetric).
    """
    for _ in range(max_tries):
        a = rng.uniform(1.0, a_max)
        if symmetric:
            b = a
        else:
            b = rng.uniform(1.0, a_max)
            if abs(a - b) < min_asymmetry:
                continue
        c_cap = math.sqrt(a * b) * 0.999
        c1 = rng.uniform(0.0, c_cap)
        c2 = rng.uniform(-c1, c1)
        # Every test below is written so that a NaN eigenvalue (det <= 0) rejects.
        if not _spectra(a, b, c1, c2)[0] >= 1.0 + phys_margin:
            continue
        if entangled is not None:
            mu_t = _spectra(a, b, c1, -c2)[0]
            if not (mu_t < 1.0 - gap if entangled else mu_t > 1.0 + gap):
                continue
        if physical_upper:
            small = min(a, b)
            if small - c1 <= phys_margin:  # block positivity of the upper state
                continue
            if not _spectra(small, small, c1, c2)[0] >= 1.0 + phys_margin:
                continue
        return StandardForm(a, b, c1, c2)
    raise RuntimeError("rejection sampler exhausted max_tries")
