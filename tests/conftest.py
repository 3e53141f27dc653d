import numpy as np
import pytest


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
