import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eofbounds.bounds import eeof, eof_symmetric
from eofbounds.entanglement import entanglement_entropy, entanglement_entropy_vec
from eofbounds.errors import DomainError, NonPhysicalStateError, NotSymmetricError
from eofbounds.states import (
    CovMat,
    random_local_symplectic,
    random_standard_form,
)

from conftest import random_psd

SQ02 = math.sqrt(0.2)

# frozen with 40-digit arithmetic
F_HALF = 0.3924361078234109
F_SYMMETRIC_EXAMPLE = 0.09960127938888494  # f(1.2 - sqrt(0.2))


def test_entropy_at_one_is_exactly_zero():
    assert entanglement_entropy(1.0) == 0.0


def test_entropy_spot_value_half():
    # c+ = 9/8, c- = 1/8 exactly
    expected = (9 / 8) * math.log(9 / 8) - (1 / 8) * math.log(1 / 8)
    assert entanglement_entropy(0.5) == pytest.approx(expected, abs=1e-15)
    assert entanglement_entropy(0.5) == pytest.approx(F_HALF, abs=1e-12)


def test_entropy_clamps_above_one():
    for x in (1.0, 1.2, 5.0):
        assert entanglement_entropy(x) == 0.0


def test_entropy_domain_error():
    with pytest.raises(DomainError):
        entanglement_entropy(0.0)
    with pytest.raises(DomainError):
        entanglement_entropy(-0.3)


def test_entropy_continuous_at_one():
    assert entanglement_entropy(1 - 1e-9) < 1e-15
    assert entanglement_entropy(1 - 1e-6) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-4, 1.0, exclude_max=True),
    st.floats(1e-4, 1.0, exclude_max=True),
)
def test_entropy_strictly_decreasing(x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    if hi - lo < 1e-12:  # below resolution of the double-precision values
        return
    assert entanglement_entropy(lo) > entanglement_entropy(hi)


def test_entropy_dense_grid_monotone():
    xs = np.linspace(1e-3, 1.0, 10_000, endpoint=False)
    vals = entanglement_entropy_vec(xs)
    assert np.all(np.diff(vals) < 0)


def test_entropy_vec_matches_scalar():
    xs = np.linspace(0.01, 1.5, 500)
    vec = entanglement_entropy_vec(xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(entanglement_entropy(float(x)), rel=1e-14, abs=1e-14)


def test_eof_symmetric_separable_is_zero():
    assert eof_symmetric(CovMat.from_standard_form(1.5, 1.5, 0.1, 0.05)) == 0.0


def test_eof_symmetric_worked_example():
    v = CovMat.from_standard_form(1.2, 1.2, SQ02, -SQ02)
    assert eof_symmetric(v) == pytest.approx(F_SYMMETRIC_EXAMPLE, abs=1e-12)
    # Symmetry is a property of the standard form, not of the local frame.
    s = random_local_symplectic(np.random.default_rng(3), squeeze_max=0.6)
    assert eof_symmetric(v.conjugate(s)) == pytest.approx(F_SYMMETRIC_EXAMPLE, abs=1e-12)


def test_eof_symmetric_two_mode_squeezed():
    # equals the entropy of entanglement f(exp(-2r)) of the pure state
    for r in (0.25, 0.5, 1.0):
        v = CovMat.two_mode_squeezed(r)
        assert eof_symmetric(v) == pytest.approx(
            entanglement_entropy(math.exp(-2 * r)), rel=1e-12
        )


def test_eof_symmetric_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eof_symmetric(CovMat.from_standard_form(1.2, 1.6, 0.1, -0.1))


def test_eof_symmetric_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        eof_symmetric(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4))


def test_eeof_matches_eof_symmetric(rng):
    for _ in range(50):
        v = random_standard_form(rng, symmetric=True).to_covmat()
        assert eeof(v) == eof_symmetric(v)


def test_eeof_separable_zero(rng):
    for _ in range(50):
        v = random_standard_form(rng, entangled=False).to_covmat()
        assert eeof(v) == 0.0


def test_eeof_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        eeof(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4))


def test_eeof_local_symplectic_invariance(rng):
    for _ in range(100):
        v = random_standard_form(rng).to_covmat()
        w = v.conjugate(random_local_symplectic(rng))
        assert eeof(w) == pytest.approx(eeof(v), abs=1e-10)


def test_eeof_loewner_monotone(rng):
    # v >= w implies eeof(v) <= eeof(w).
    for _ in range(100):
        w = random_standard_form(rng).to_covmat()
        v = CovMat(w.matrix + random_psd(rng, scale=0.3))
        assert eeof(v) <= eeof(w) + 1e-12


def test_eeof_sandwiched_by_comparable_symmetric_states(rng):
    # For V_NN >= V_AB >= V_MM sharing the correlation block, the
    # estimator sits between the symmetric-state values.
    count = 0
    while count < 100:
        sf = random_standard_form(rng, symmetric=True)
        m, c1, c2 = sf.a, sf.c1, sf.c2
        a = m + rng.uniform(0.0, 0.8)
        b = a + rng.uniform(0.0, 0.8)
        n = b + rng.uniform(0.0, 0.8)
        v_mm = CovMat.from_standard_form(m, m, c1, c2)
        v_ab = CovMat.from_standard_form(a, b, c1, c2)
        v_nn = CovMat.from_standard_form(n, n, c1, c2)
        upper = eof_symmetric(v_mm)
        lower = eof_symmetric(v_nn)
        est = eeof(v_ab)
        assert lower - 1e-12 <= est <= upper + 1e-12
        count += 1
