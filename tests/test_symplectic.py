import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eofbounds.symplectic import J2, symmetrize

from conftest import J4, loewner_ge, partial_transpose, random_pd, random_psd, symplectic_spectrum

ZERO = np.zeros((4, 4))


def test_symplectic_form_algebra():
    for j in (J2, J4):
        np.testing.assert_array_equal(j.T, -j)
        np.testing.assert_array_equal(j @ j, -np.eye(len(j)))


def test_is_psd_identity():
    assert loewner_ge(np.eye(4), ZERO, 1e-10)


def test_is_psd_negative_eigenvalue():
    assert not loewner_ge(np.diag([1.0, 1.0, 1.0, -0.1]), ZERO, 1e-10)


def test_is_psd_gram_matrices(rng):
    # Gram matrices are PSD by construction.
    for _ in range(200):
        g = rng.normal(size=(4, 4))
        assert loewner_ge(g.T @ g, ZERO, 1e-10)


def test_loewner_scalar_order():
    assert loewner_ge(2 * np.eye(4), np.eye(4))
    assert not loewner_ge(np.eye(4), 2 * np.eye(4))


def test_loewner_reflexive(rng):
    m = random_pd(rng)
    assert loewner_ge(m, m, 0.0)


def test_loewner_incomparable_pair():
    assert not loewner_ge(np.diag([2.0, 1, 1, 1]), np.diag([1.0, 2, 1, 1]))
    assert not loewner_ge(np.diag([1.0, 2, 1, 1]), np.diag([2.0, 1, 1, 1]))


def test_loewner_antisymmetric_within_tol(rng):
    for _ in range(50):
        m1 = random_pd(rng)
        m2 = m1 + 1e-13 * random_psd(rng)
        assert loewner_ge(m1, m2) and loewner_ge(m2, m1)
        assert np.max(np.abs(m1 - m2)) < 1e-10


def test_loewner_transitive(rng):
    for _ in range(50):
        m3 = random_pd(rng)
        m2 = m3 + random_psd(rng)
        m1 = m2 + random_psd(rng)
        assert loewner_ge(m1, m2) and loewner_ge(m2, m3)
        assert loewner_ge(m1, m3)


def test_partial_transpose_identity():
    np.testing.assert_array_equal(partial_transpose(np.eye(4)), np.eye(4))


def test_partial_transpose_flips_c2():
    # Standard form (a, b, c1, c2) maps to (a, b, c1, -c2).
    a, b, c1, c2 = 1.3, 1.7, 0.5, -0.2
    m = np.diag([a, a, b, b]).astype(float)
    m[0, 2] = m[2, 0] = c1
    m[1, 3] = m[3, 1] = c2
    mt = partial_transpose(m)
    assert mt[1, 3] == -c2 and mt[0, 2] == c1
    assert mt[1, 1] == a and mt[3, 3] == b


def test_partial_transpose_involution(rng):
    for _ in range(50):
        m = symmetrize(rng.normal(size=(4, 4)))
        mt = partial_transpose(m)
        np.testing.assert_array_equal(mt, mt.T)
        np.testing.assert_array_equal(partial_transpose(mt), m)


def test_spectrum_vacuum():
    spec = symplectic_spectrum(np.eye(4))
    assert spec.mu_minus == pytest.approx(1.0, abs=1e-12)
    assert spec.mu_plus == pytest.approx(1.0, abs=1e-12)


def test_spectrum_thermal():
    spec = symplectic_spectrum(2.0 * np.eye(4))
    assert spec.mu_minus == pytest.approx(2.0, abs=1e-12)
    assert spec.mu_plus == pytest.approx(2.0, abs=1e-12)


def test_spectrum_two_mode_squeezed():
    # Pure state: both symplectic eigenvalues sqrt(m^2 - c1^2) = 1.
    r = 0.7
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    m = np.diag([ch, ch, ch, ch]).astype(float)
    m[0, 2] = m[2, 0] = sh
    m[1, 3] = m[3, 1] = -sh
    assert math.sqrt(ch * ch - sh * sh) == pytest.approx(1.0, abs=1e-12)
    spec = symplectic_spectrum(m)
    assert spec.mu_minus == pytest.approx(1.0, abs=1e-10)
    assert spec.mu_plus == pytest.approx(1.0, abs=1e-10)


def test_spectrum_sorted_and_positive(rng):
    for _ in range(100):
        spec = symplectic_spectrum(random_pd(rng))
        assert 0 < spec.mu_minus <= spec.mu_plus


def test_spectrum_rejects_non_pd():
    with pytest.raises(ValueError):
        symplectic_spectrum(np.diag([1.0, 1.0, 1.0, -0.5]))
    with pytest.raises(ValueError):
        symplectic_spectrum(np.diag([1.0, 1.0, 1.0, 0.0]))


def test_williamson_ordering(rng):
    # H1 >= H2 implies componentwise ordering of the symplectic spectra.
    for _ in range(500):
        h2 = random_pd(rng)
        h1 = h2 + random_psd(rng)
        s1 = symplectic_spectrum(h1)
        s2 = symplectic_spectrum(h2)
        assert s1.mu_minus >= s2.mu_minus - 1e-9
        assert s1.mu_plus >= s2.mu_plus - 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
def test_symmetrize_idempotent(x, y):
    m = np.array([[x, y, 0, 0], [0, x, 0, 0], [0, 0, y, 0], [0, 0, 0, 1]])
    s = symmetrize(m)
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(symmetrize(s), s)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e300, 1e300).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-300), min_size=16, max_size=16), st.booleans())
def test_symmetrize_is_the_mean_where_it_does_not_overflow(entries, symmetric):
    # The bits of (m + m^T)/2, signed zeros included, wherever that sum
    # neither overflows nor halves into subnormals.
    m = np.array(entries).reshape(4, 4)
    if symmetric:
        m = np.triu(m) + np.triu(m, 1).T
    with np.errstate(over="ignore"):
        mean = (m + m.T) / 2.0
    finite = np.isfinite(mean)
    got = symmetrize(m)
    assert np.array_equal(got[finite], mean[finite])
    assert np.array_equal(np.signbit(got[finite]), np.signbit(mean[finite]))
    np.testing.assert_array_equal(got, got.T)


def test_symmetrize_huge_entries_without_warnings():
    # (m + m^T)/2 overflows above about 9e307; the halves do not.
    m = np.diag([1e308, 1e308, 1.0, 1.0])
    m[0, 1], m[1, 0], m[2, 3], m[3, 2] = 1.7e308, 1.7e308, 1.7e308, -1.7e308
    with np.errstate(all="raise"):
        got = symmetrize(m)
    want = np.diag([1e308, 1e308, 1.0, 1.0])
    want[0, 1] = want[1, 0] = 1.7e308
    np.testing.assert_array_equal(got, want)
