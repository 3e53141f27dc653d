import math

import numpy as np
import pytest

from eofbounds.bounds import bound_report
from eofbounds.cli import main
from eofbounds.errors import DomainError, NonPhysicalStateError
from eofbounds.states import (
    CovMat,
    Invariants,
    StandardForm,
    _least_eigenvalue,
    _spectra,
    _standard_forms,
    invariants,
)

from conftest import (
    J4,
    is_physical,
    partial_transpose,
    random_local_symplectic,
    random_standard_form,
    symplectic_spectrum,
)

SQ02 = math.sqrt(0.2)


def test_covmat_symmetrized_and_immutable():
    raw = np.arange(16, dtype=float).reshape(4, 4)
    cm = CovMat(raw)
    np.testing.assert_array_equal(cm.matrix, (raw + raw.T) / 2)
    with pytest.raises(ValueError):
        cm.matrix[0, 0] = 5.0


def test_covmat_blocks():
    cm = CovMat.from_standard_form(1.2, 1.5, 0.3, -0.1)
    np.testing.assert_array_equal(cm.block_a, 1.2 * np.eye(2))
    np.testing.assert_array_equal(cm.block_b, 1.5 * np.eye(2))
    np.testing.assert_array_equal(cm.block_c, np.diag([0.3, -0.1]))


def test_covmat_shape_check():
    with pytest.raises(DomainError):
        CovMat(np.eye(3))
    with pytest.raises(DomainError, match="^covariance matrix contains non-finite entries$"):
        CovMat(np.full((4, 4), np.nan))


def test_invariants_product_state():
    inv = invariants(CovMat.from_standard_form(2.0, 2.0, 0.0, 0.0))
    assert tuple(inv) == (4.0, 4.0, 0.0, 0.0)


def test_invariants_standard_form_i4(rng):
    # I4 = a*b*(c1^2 + c2^2) on standard forms.
    for _ in range(50):
        sf = random_standard_form(rng)
        inv = invariants(sf.to_covmat())
        a, b, c1, c2 = sf
        assert inv.i1 == pytest.approx(a * a, rel=1e-12)
        assert inv.i2 == pytest.approx(b * b, rel=1e-12)
        assert inv.i3 == pytest.approx(c1 * c2, rel=1e-12, abs=1e-14)
        assert inv.i4 == pytest.approx(a * b * (c1**2 + c2**2), rel=1e-12)


def test_invariants_local_symplectic_invariance(rng):
    for _ in range(100):
        cm = random_standard_form(rng).to_covmat()
        s = random_local_symplectic(rng)
        # conjugating matrix is symplectic
        np.testing.assert_allclose(s.T @ J4 @ s, J4, atol=1e-12)
        before = invariants(cm)
        after = invariants(cm.conjugate(s))
        for x, y in zip(before, after):
            assert x == pytest.approx(y, rel=1e-10, abs=1e-10)


def test_standard_form_fixed_point():
    v = CovMat.from_standard_form(1.4, 1.9, 0.6, -0.3)
    sf = bound_report(v, include_geof=False).standard_form
    assert (sf.a, sf.b, sf.c1, sf.c2) == pytest.approx((1.4, 1.9, 0.6, -0.3), abs=1e-12)


def test_standard_form_degenerate_correlations():
    # I1 = I2 = 1.44, I3 = -0.2, I4 = a*b*(c1^2+c2^2) = 1.44*0.4 = 0.576:
    # the discriminant vanishes and c1 = |c2| = sqrt(0.2).
    form, ok = _standard_forms(1.44, 1.44, -0.2, 0.576)
    assert ok
    sf = StandardForm(*form)
    assert sf.a == pytest.approx(1.2, abs=1e-12)
    assert sf.b == pytest.approx(1.2, abs=1e-12)
    assert sf.c1 == pytest.approx(SQ02, abs=1e-12)
    assert sf.c2 == pytest.approx(-SQ02, abs=1e-12)
    # oracle: substituting back reproduces the invariants
    inv = invariants(sf.to_covmat())
    assert inv.i1 == pytest.approx(1.44, abs=1e-12)
    assert inv.i3 == pytest.approx(-0.2, abs=1e-12)
    assert inv.i4 == pytest.approx(0.576, abs=1e-12)


def test_standard_form_recovers_after_rotation(rng):
    for _ in range(100):
        sf0 = random_standard_form(rng)
        cm = sf0.to_covmat().conjugate(random_local_symplectic(rng))
        sf1 = bound_report(cm, include_geof=False).standard_form
        assert sf1.a == pytest.approx(sf0.a, abs=1e-9)
        assert sf1.b == pytest.approx(sf0.b, abs=1e-9)
        assert sf1.c1 == pytest.approx(sf0.c1, abs=1e-9)
        assert sf1.c2 == pytest.approx(sf0.c2, abs=1e-9)


def test_standard_form_roundtrip_preserves_invariants(rng):
    for _ in range(100):
        cm = random_standard_form(rng).to_covmat().conjugate(random_local_symplectic(rng))
        rebuilt = bound_report(cm, include_geof=False).standard_form.to_covmat()
        for x, y in zip(invariants(cm), invariants(rebuilt)):
            assert x == pytest.approx(y, rel=1e-10, abs=1e-10)


def test_standard_form_no_real_solution():
    # I4/(ab) < 2|I3| admits no real (c1, c2): no standard form, and
    # bound_report rejects the invariants.
    assert not _standard_forms(1.44, 1.44, -0.3, 0.1)[1]
    with pytest.raises(DomainError, match="no standard form"):
        bound_report(Invariants(1.44, 1.44, -0.3, 0.1))


def test_standard_form_convention_validation(tmp_path, capsys):
    # a, b >= 1 is physical, so the physicality test judges it.
    with pytest.raises(NonPhysicalStateError):
        bound_report(StandardForm(0.8, 1.2, 0.0, 0.0))
    path = tmp_path / "in.json"
    path.write_text('{"standard_form": {"a": 0.8, "b": 1.2, "c1": 0, "c2": 0}}')
    assert main(["analyze", "--input", str(path)]) == 3
    assert "mu_minus = 0.8 < 1" in capsys.readouterr().err
    with pytest.raises(DomainError):
        StandardForm(1.2, 1.2, 0.1, 0.4)


@pytest.mark.parametrize("entries", [(math.nan, 1.0, 0.0, 0.0), (math.inf, 2.0, 0.0, 0.0),
                                     (1.2, 1.5, math.nan, 0.0), (1.2, 1.5, 0.3, -math.inf)])
def test_standard_form_rejects_non_finite_entries(entries):
    # NaN fails every comparison, so without this test these would construct.
    with pytest.raises(DomainError, match="non-finite"):
        StandardForm(*entries)


def test_symplectic_eigenvalues_vacuum():
    spec = symplectic_spectrum(CovMat.vacuum().matrix)
    assert (spec.mu_minus, spec.mu_plus) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_symmetric_state_closed_form(rng):
    # nu_pm = sqrt((m +- c1)(m +- c2)) for symmetric states.
    for _ in range(100):
        sf = random_standard_form(rng, symmetric=True)
        m, c1, c2 = sf.a, sf.c1, sf.c2
        spec = symplectic_spectrum(sf.to_covmat().matrix)
        assert spec.mu_minus == pytest.approx(
            math.sqrt((m - c1) * (m - c2)), abs=1e-12
        )
        assert spec.mu_plus == pytest.approx(
            math.sqrt((m + c1) * (m + c2)), abs=1e-12
        )


def test_symmetric_state_ppt_closed_form(rng):
    # nu-tilde_pm = sqrt((m +- c1)(m -+ c2)).
    for _ in range(100):
        sf = random_standard_form(rng, symmetric=True)
        m, c1, c2 = sf.a, sf.c1, sf.c2
        spec = symplectic_spectrum(partial_transpose(sf.to_covmat().matrix))
        assert spec.mu_minus == pytest.approx(
            math.sqrt((m - c1) * (m + c2)), abs=1e-12
        )
        assert spec.mu_plus == pytest.approx(
            math.sqrt((m + c1) * (m - c2)), abs=1e-12
        )


def test_spectra_match_general_route(rng):
    # Standard-form closed form vs moduli of eigenvalues of iJV, the latter
    # on the state in a random local frame.
    for _ in range(200):
        sf = random_standard_form(rng)
        cm = sf.to_covmat().conjugate(random_local_symplectic(rng))
        for c2, m in ((sf.c2, cm.matrix), (-sf.c2, partial_transpose(cm.matrix))):
            mu_minus, mu_plus = _spectra(sf.a, sf.b, sf.c1, c2)
            general = symplectic_spectrum(m)
            assert mu_minus == pytest.approx(general.mu_minus, abs=1e-10)
            assert mu_plus == pytest.approx(general.mu_plus, abs=1e-10)


def test_ppt_equals_spectrum_of_transposed_cm(rng):
    for _ in range(100):
        sf = random_standard_form(rng)
        ppt = symplectic_spectrum(partial_transpose(sf.to_covmat().matrix))
        direct = symplectic_spectrum(CovMat.from_standard_form(sf.a, sf.b, sf.c1, -sf.c2).matrix)
        assert ppt.mu_minus == pytest.approx(direct.mu_minus, abs=1e-12)
        assert ppt.mu_plus == pytest.approx(direct.mu_plus, abs=1e-12)


def test_product_state_ppt_unchanged():
    cm = CovMat.from_standard_form(1.5, 2.5, 0.0, 0.0)
    a = symplectic_spectrum(cm.matrix)
    b = symplectic_spectrum(partial_transpose(cm.matrix))
    assert (a.mu_minus, a.mu_plus) == (b.mu_minus, b.mu_plus)


def test_two_mode_squeezed_ppt_eigenvalue():
    # r = 3 is strongly entangled: the route must not cancel there.
    for r, rel in ((0.1, 1e-12), (0.5, 1e-12), (1.2, 1e-12), (3.0, 1e-9)):
        spec = symplectic_spectrum(partial_transpose(CovMat.two_mode_squeezed(r).matrix))
        assert spec.mu_minus == pytest.approx(math.exp(-2 * r), rel=rel)


def test_is_physical_vacuum():
    assert is_physical(CovMat.vacuum())


def test_is_physical_squeezed_below_heisenberg():
    # nu_minus = sqrt(0.84) < 1
    assert not is_physical(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4))


def test_is_physical_sampler_guarantee(rng):
    for _ in range(200):
        assert is_physical(random_standard_form(rng).to_covmat())


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
def test_is_physical_verdict_does_not_depend_on_the_frame(rng, tol):
    # tol applies to the least eigenvalue of the standard form, so a state
    # in any local frame gets the verdict of its standard form, also where
    # its matrix has a least eigenvalue in (0, tol].  Mixed draws, some of
    # them unphysical, skip those within 1e-6 of a threshold (roundoff).
    below_tol = 0
    for i in range(900):
        if i % 3:
            a, b = rng.uniform(1.0, 5.0, 2)
            c1 = rng.uniform(0.0, math.sqrt(a * b))
            sf, squeeze = StandardForm(a, b, c1, rng.uniform(-c1, c1)), 2.0
            lam, nu = _least_eigenvalue(a, b, c1), _spectra(*sf)[0]
            if abs(lam - tol) < 1e-6 or abs(nu - (1.0 - tol)) < 1e-6:
                continue
        else:
            r = rng.uniform(0.0, 3.0)
            ch, sh = math.cosh(2 * r), math.sinh(2 * r)
            sf, squeeze = StandardForm(ch, ch, sh, -sh), 1.5
        v = sf.to_covmat().conjugate(random_local_symplectic(rng, squeeze))
        assert is_physical(v, tol) == is_physical(sf, tol), (i, tuple(sf))
        below_tol += 0.0 < np.linalg.eigvalsh(v.matrix)[0] <= tol < _least_eigenvalue(sf.a, sf.b, sf.c1)
    assert below_tol > 0 or tol < 1e-6


def test_is_entangled_product_state():
    assert not bound_report(CovMat.from_standard_form(1.5, 2.5, 0.0, 0.0), include_geof=False).entangled


def test_is_entangled_two_mode_squeezed():
    assert bound_report(CovMat.two_mode_squeezed(0.5), include_geof=False).entangled


def test_is_entangled_symmetric_example():
    # nu-tilde_minus = 1.2 - sqrt(0.2) < 1
    v = CovMat.from_standard_form(1.2, 1.2, SQ02, -SQ02)
    assert symplectic_spectrum(partial_transpose(v.matrix)).mu_minus == pytest.approx(1.2 - SQ02, abs=1e-12)
    assert bound_report(v, include_geof=False).entangled


def test_is_entangled_requires_physical():
    with pytest.raises(NonPhysicalStateError):
        bound_report(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4), include_geof=False)


def test_physicality_cascade(rng):
    # If the smaller-block symmetric state is physical and B >= A, the
    # state itself and the larger-block symmetric state are physical too.
    count = 0
    while count < 100:
        sf = random_standard_form(rng, symmetric=True)
        m, c1, c2 = sf.a, sf.c1, sf.c2
        b = m + rng.uniform(0.0, 1.0)
        v = CovMat.from_standard_form(m, b, c1, c2)
        assert is_physical(v)
        assert is_physical(CovMat.from_blocks(v.block_b, v.block_b, v.block_c))
        count += 1


def test_sampler_entanglement_control(rng):
    for _ in range(50):
        sf = random_standard_form(rng, entangled=True)
        assert bound_report(sf.to_covmat(), include_geof=False).entangled
        sf = random_standard_form(rng, entangled=False)
        assert not bound_report(sf.to_covmat(), include_geof=False).entangled
