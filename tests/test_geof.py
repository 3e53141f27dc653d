import math

import numpy as np
import pytest

from eofbounds.entanglement import entanglement_entropy, eof_symmetric
from eofbounds.errors import DomainError, NonPhysicalStateError
from eofbounds.geof import geof, pure_cms_from_parameters
from eofbounds.states import (
    CovMat,
    is_entangled,
    ppt_eigenvalues,
    random_local_symplectic,
    random_standard_form,
)
from eofbounds.symplectic import loewner_ge, symplectic_spectrum

from conftest import random_psd
from reference_geof import reference_geof


def general_frame_corpus(seed, n):
    """Symmetric, asymmetric entangled and separable states in turn, each
    conjugated by a random local symplectic."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = ("sym", "asym", "sep")[i % 3]
        sf = random_standard_form(rng, symmetric=kind == "sym", entangled=kind != "sep")
        out.append((kind, sf, sf.to_covmat().conjugate(random_local_symplectic(rng, 0.3))))
    return out


def test_pure_parametrization_is_pure(rng):
    for _ in range(100):
        params = rng.uniform(-1.0, 1.0, size=5)
        g = pure_cms_from_parameters(params)
        spec = symplectic_spectrum(g)
        assert spec.mu_minus == pytest.approx(1.0, abs=1e-9)
        assert spec.mu_plus == pytest.approx(1.0, abs=1e-9)


def test_pure_parametrization_ppt_eigenvalue(rng):
    # nu-tilde of the candidate is exp(-2|r|) for any local parameters.
    for _ in range(50):
        params = rng.uniform(-0.8, 0.8, size=5)
        g = pure_cms_from_parameters(params)
        nu = ppt_eigenvalues(CovMat(g)).mu_minus
        assert nu == pytest.approx(math.exp(-2 * abs(params[4])), rel=1e-9)


def test_separable_states_give_zero(rng):
    for _ in range(50):
        v = random_standard_form(rng, entangled=False).to_covmat()
        res = geof(v)
        assert res.feasible
        assert res.value == 0.0


def test_two_mode_squeezed_is_own_minimizer():
    # The only pure matrix below a pure state is the state itself.
    for r in (0.2, 0.6, 1.1):
        res = geof(CovMat.two_mode_squeezed(r))
        assert res.feasible
        assert res.value == pytest.approx(
            entanglement_entropy(math.exp(-2 * r)), abs=1e-6
        )


def test_symmetric_states_match_closed_form(rng):
    for _ in range(40):
        v = random_standard_form(rng, symmetric=True, entangled=True).to_covmat()
        res = geof(v)
        assert res.feasible
        assert res.value == pytest.approx(eof_symmetric(v), abs=1e-6)


def test_result_invariants(rng):
    states = [random_standard_form(rng, entangled=(i % 3 != 0)).to_covmat() for i in range(30)]
    states += [v for _, _, v in general_frame_corpus(7, 30)]
    states += [CovMat.two_mode_squeezed(r) for r in np.linspace(0.0, 2.0, 9)]
    for v in states:
        res = geof(v)
        assert res.feasible
        g = pure_cms_from_parameters(res.argmin_parameters)
        # purity of the reconstructed matrix
        spec = symplectic_spectrum(g)
        assert spec.mu_minus == pytest.approx(1.0, abs=1e-8)
        assert spec.mu_plus == pytest.approx(1.0, abs=1e-8)
        # feasibility against the frame it optimized in
        assert loewner_ge(res.reference_matrix, g, 1e-9)
        # reported value is the entanglement of the reconstructed matrix
        nu = ppt_eigenvalues(CovMat(g)).mu_minus
        assert res.value == pytest.approx(entanglement_entropy(nu), abs=1e-9)


def test_zero_psd_tol_still_certifies(rng):
    # The optimal witness touches V, so roundoff alone decides the sign of
    # min eig(V - G); with no tolerance the search must still certify one.
    for i in range(40):
        v = random_standard_form(rng, entangled=(i % 2 == 0)).to_covmat()
        res = geof(v, psd_tol=0.0)
        assert res.feasible
        g = pure_cms_from_parameters(res.argmin_parameters)
        assert loewner_ge(res.reference_matrix, g, 1e-12)
        assert res.value <= geof(v).value + 1e-8


def test_never_above_reference_search():
    # The 5-parameter search the reduction replaced reports its best
    # strictly feasible point, an upper bound on the minimum.
    for kind, sf, v in general_frame_corpus(11, 99):
        res = geof(v)
        assert res.feasible and not res.budget_exhausted
        assert res.value <= reference_geof(v).value + 1e-9
        if kind == "sym":
            assert res.value == pytest.approx(eof_symmetric(sf.to_covmat()), abs=1e-9)
        if kind == "sep":
            assert res.value == 0.0


def test_value_nonnegative_and_zero_iff_separable(rng):
    for _ in range(60):
        v = random_standard_form(rng).to_covmat()
        value = geof(v).value
        assert value >= 0.0
        mu_t = ppt_eigenvalues(v).mu_minus
        if abs(mu_t - 1.0) > 1e-6:
            assert (value > 1e-9) == is_entangled(v)


def test_monotone_under_noise(rng):
    for _ in range(20):
        v = random_standard_form(rng, entangled=True).to_covmat()
        noisy = CovMat(v.matrix + random_psd(rng, scale=0.2))
        assert geof(noisy).value <= geof(v).value + 2e-6


def test_budget_exhaustion_flagged():
    v = CovMat.two_mode_squeezed(0.4)
    full = geof(v)
    assert not full.budget_exhausted
    res = geof(v, budget=full.iterations - 1)
    assert res.budget_exhausted
    assert res.iterations == full.iterations - 1
    assert res.feasible  # best-so-far still returned
    assert loewner_ge(res.reference_matrix, pure_cms_from_parameters(res.argmin_parameters), 1e-9)
    with pytest.raises(DomainError):
        geof(v, budget=0)


def test_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        geof(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4))
