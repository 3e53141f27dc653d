import importlib
import math
import types

import numpy as np
import pytest

from eofbounds.bounds import _ROWS, _standard_bounds, bound_report
from eofbounds.entanglement import entanglement_entropy, entanglement_entropy_vec
from eofbounds.errors import NonPhysicalStateError
import eofbounds.geof as geof_module
from eofbounds.geof import _geof_forms
from eofbounds.states import CovMat, _standard_forms
from eofbounds.symplectic import PSD_TOL

from conftest import (
    loewner_ge,
    partial_transpose,
    random_local_symplectic,
    random_psd,
    random_standard_form,
    symplectic_spectrum,
)
from reference_geof import pure_cms_from_parameters, reference_geof, scalar_geof


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


def witness_and_frame(rep):
    """The pure witness G of a report's GeoF, and the standard-form matrix it
    was certified against."""
    assert rep.geof_witness is not None
    g = pure_cms_from_parameters(np.insert(rep.geof_witness, (0, 1), 0.0))
    return g, rep.standard_form.to_covmat().matrix


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
        nu = symplectic_spectrum(partial_transpose(g)).mu_minus
        assert nu == pytest.approx(math.exp(-2 * abs(params[4])), rel=1e-9)


def test_separable_states_give_zero(rng):
    for _ in range(50):
        v = random_standard_form(rng, entangled=False).to_covmat()
        assert bound_report(v).geof == 0.0


def test_two_mode_squeezed_is_own_minimizer():
    # The only pure matrix below a pure state is the state itself.
    for r in (0.2, 0.6, 1.1):
        value = bound_report(CovMat.two_mode_squeezed(r)).geof
        assert value == pytest.approx(entanglement_entropy(math.exp(-2 * r)), abs=1e-6)


def test_symmetric_states_match_closed_form(rng):
    for _ in range(40):
        v = random_standard_form(rng, symmetric=True, entangled=True).to_covmat()
        rep = bound_report(v)
        assert rep.geof == pytest.approx(rep.eeof, abs=1e-6)


def test_result_invariants(rng):
    states = [random_standard_form(rng, entangled=(i % 3 != 0)).to_covmat() for i in range(30)]
    states += [v for _, _, v in general_frame_corpus(7, 30)]
    states += [CovMat.two_mode_squeezed(r) for r in np.linspace(0.0, 2.0, 9)]
    for v in states:
        rep = bound_report(v)
        g, frame = witness_and_frame(rep)
        # purity of the reconstructed matrix
        spec = symplectic_spectrum(g)
        assert spec.mu_minus == pytest.approx(1.0, abs=1e-8)
        assert spec.mu_plus == pytest.approx(1.0, abs=1e-8)
        # feasibility against the frame it optimized in
        assert loewner_ge(frame, g, 1e-9)
        # reported value is the entanglement of the reconstructed matrix
        nu = symplectic_spectrum(partial_transpose(g)).mu_minus
        assert rep.geof == pytest.approx(entanglement_entropy(nu), abs=1e-9)


def test_pure_states_are_their_own_witness():
    # A pure V is the only witness, so the certificate decides on roundoff
    # alone: the conversion of Gx to (s_a, s_b, r) moves the rebuilt entries
    # by about eps max(a, b)^3, and the certificate must allow it.
    rng = np.random.default_rng(3)
    states = []
    for i in range(300):
        r = rng.uniform(0.0, 3.0)
        v = CovMat.two_mode_squeezed(r)
        states.append((r, v.conjugate(random_local_symplectic(rng, 0.3)) if i % 2 else v))
    for psd_tol in (PSD_TOL, 0.0):
        for r, v in states:
            value = bound_report(v, psd_tol=psd_tol).geof
            assert value is not None, (r, psd_tol)
            assert value == pytest.approx(entanglement_entropy(math.exp(-2 * r)), abs=1e-6)


def test_zero_psd_tol_still_certifies(rng):
    # The optimal witness touches V, so roundoff alone decides the sign of
    # min eig(V - G); with no tolerance the search must still certify one.
    for i in range(40):
        v = random_standard_form(rng, entangled=(i % 2 == 0)).to_covmat()
        rep = bound_report(v, psd_tol=0.0)
        g, frame = witness_and_frame(rep)
        assert loewner_ge(frame, g, 1e-12)
        assert rep.geof <= bound_report(v).geof + 1e-8


def test_never_above_reference_search():
    # The 5-parameter search the reduction replaced reports its best
    # strictly feasible point, an upper bound on the minimum.
    for kind, sf, v in general_frame_corpus(11, 99):
        value = bound_report(v).geof
        assert value <= reference_geof(v).value + 1e-9
        if kind == "sym":
            exact = bound_report(sf.to_covmat(), include_geof=False).eeof
            assert value == pytest.approx(exact, abs=1e-9)
        if kind == "sep":
            assert value == 0.0


def test_value_nonnegative_and_zero_iff_separable(rng):
    for _ in range(60):
        v = random_standard_form(rng).to_covmat()
        rep = bound_report(v)
        assert rep.geof >= 0.0
        mu_t = symplectic_spectrum(partial_transpose(v.matrix)).mu_minus
        if abs(mu_t - 1.0) > 1e-6:
            assert (rep.geof > 1e-9) == rep.entangled


def test_monotone_under_noise(rng):
    for _ in range(20):
        v = random_standard_form(rng, entangled=True).to_covmat()
        noisy = CovMat(v.matrix + random_psd(rng, scale=0.2))
        assert bound_report(noisy).geof <= bound_report(v).geof + 2e-6


def test_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        bound_report(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4))


def grid_forms(steps, i3, i4=None):
    """Physical standard forms of an I1 x I2 scan grid over [1, 4]^2, as the scan solves them."""
    axis = np.linspace(1.0, 4.0, steps)
    i1, i2 = (x.ravel() for x in np.meshgrid(axis, axis, indexing="ij"))
    i4 = 2.0 * abs(i3) * np.sqrt(i1 * i2) if i4 is None else np.full_like(i1, i4)
    forms, solved = _standard_forms(i1, i2, np.full_like(i1, i3), i4)
    ok = solved & _standard_bounds(*forms)[0]
    return np.array([x[ok] for x in forms])


def random_forms(seed, n):
    """Symmetric and asymmetric entangled, separable and pure (TMSV, r <= 2)
    states, with a, b up to 50."""
    rng = np.random.default_rng(seed)
    states = []
    for i in range(n):
        kind = i % 4
        if kind == 3:
            states.append(CovMat.two_mode_squeezed(rng.uniform(0.0, 2.0)))
        else:
            sf = random_standard_form(rng, a_max=50.0, symmetric=kind == 0, entangled=kind != 2)
            states.append(sf.to_covmat())
    return states


def standard_matrices(forms):
    a, b, c1, c2 = forms
    return np.array([CovMat.from_standard_form(*f).matrix for f in zip(a, b, c1, c2)])


def padded(witness):
    """The 5-parameter rows (0, s_a, 0, s_b, r) of witness rows (s_a, s_b, r)."""
    return np.insert(witness, (0, 1), 0.0, axis=1)


def assert_matches_reference(forms, refs):
    value, witness, _ = _geof_forms(*forms)
    feasible = ~np.isnan(value)
    assert np.array_equal(feasible, [r.feasible for r in refs])
    np.testing.assert_allclose(value[feasible], [r.value for r in refs if r.feasible], rtol=0, atol=1e-12)
    gamma = pure_cms_from_parameters(padded(witness[feasible]))
    lam = np.linalg.eigvalsh(standard_matrices(forms)[feasible] - gamma)[:, 0]
    assert np.all(lam >= -PSD_TOL)


@pytest.mark.parametrize("forms", [
    grid_forms(40, -0.2),  # the README default grid
    grid_forms(30, -0.2, 1.5),
], ids=["readme-grid", "i4-1.5-grid"])
def test_array_search_matches_scalar_reference_on_grids(forms):
    # The array search takes the exact stationary points, the reference
    # golden-section steps down to brackets of 1e-9 radians.
    refs = [scalar_geof(CovMat.from_standard_form(*f), tol=1e-9) for f in forms.T]
    assert_matches_reference(forms, refs)


def test_array_search_matches_scalar_reference_on_random_states():
    states = random_forms(17, 200)
    reports = [bound_report(v) for v in states]
    # The standard forms the reports searched, after their reduction.
    forms = np.array([tuple(rep.standard_form) for rep in reports]).T
    assert_matches_reference(forms, [scalar_geof(v, tol=1e-9) for v in states])
    # A report's GeoF is the array search at n = 1: the same row, bit for
    # bit, and as many witnesses evaluated alone as in the batch.
    value, witness, evals = _geof_forms(*forms)
    for k, rep in enumerate(reports):
        assert (rep.geof, rep.geof_witness) == (value[k], tuple(witness[k])), k
        assert _geof_forms(*forms[:, k])[2][0] == evals[k], k


def random_standard_forms(seed, n):
    """Arrays (a, b, c1, c2) of n random standard forms with a, b up to 10,
    entangled and separable in turn, every third one symmetric."""
    rng = np.random.default_rng(seed)
    return np.array([tuple(random_standard_form(rng, a_max=10.0, symmetric=i % 3 == 0, entangled=i % 2 == 0))
                     for i in range(n)]).T


@pytest.mark.parametrize("forms", [grid_forms(40, -0.2), random_standard_forms(29, 2000)],
                         ids=["readme-grid", "random-forms"])
def test_at_most_six_angles_per_state(forms):
    # At most 2 product witnesses, then the 4 roots of the quartic unless
    # a product witness certified.
    value, witness, evals = _geof_forms(*forms)
    assert not np.isnan(value).any() and evals.max() <= 6
    product = evals <= 2
    assert np.all(evals[product] >= 1)
    assert np.all(value[product] == 0.0) and np.all(witness[product, 2] == 0.0)
    assert np.all(np.isin(evals[~product] - 4, (0, 2)))
    _, entangled, _ = _standard_bounds(*forms)
    assert not np.any(product & entangled)
    assert np.any(product) and np.any(entangled)


def assert_product_witnesses(forms, psd_tol=PSD_TOL):
    """Every form certifies a product witness: value exactly 0.0, r = 0 and G <= V."""
    value, witness, evals = _geof_forms(*forms, psd_tol)
    assert not np.isnan(value).any() and np.all(value == 0.0) and np.all(witness[:, 2] == 0.0)
    assert np.all((evals == 1) | (evals == 2))
    gamma = pure_cms_from_parameters(padded(witness))
    assert np.all(np.linalg.eigvalsh(standard_matrices(forms) - gamma)[:, 0] >= -PSD_TOL)
    return evals


def test_degenerate_product_states_certify_the_first_witness():
    # With P12 = 0 the tangency term P12^2/(g11 - P11) is 0, also where
    # g11 = P11 (a vacuum mode), and with c1 = 0 so is D11 c1^2/w at w = 0.
    forms = np.array([(1.0, 1.0, 0.0, 0.0), (1.0, 3.0, 0.0, 0.0), (3.0, 1.0, 0.0, 0.0),
                      (1.0, 1.0 + 1e-12, 0.0, 0.0), (2.5, 1.7, 0.0, 0.0)]).T
    assert np.all(assert_product_witnesses(forms) == 1)


def test_separable_state_at_the_ppt_boundary():
    # (2, 2, c1, -c1) has nu_t = 2 - c1: the two product witnesses meet.
    forms = np.array([(2.0, 2.0, c1, -c1) for c1 in (1.0, 1.0 - 1e-10, 1.0 - 5e-10, 1.0 - 9e-10)]).T
    _, entangled, table = _standard_bounds(*forms)
    nu_t = table[_ROWS.index("nu_t")]
    assert not entangled.any() and np.all(np.abs(nu_t - 1.0) <= 1e-9)
    assert_product_witnesses(forms)


@pytest.mark.parametrize("a_max, c2_max, psd_tol, n", [(500.0, 1.0, PSD_TOL, 5000), (5.0, 0.0, 0.0, 3900)],
                         ids=["up-to-500", "c2-zero-at-zero-psd-tol"])
def test_strongly_correlated_separable_states(a_max, c2_max, psd_tol, n):
    # The second case needs the factored discriminant: K^2 - 4 D11 D22 c1^2
    # itself loses the digits that a witness certified at psd_tol = 0 needs.
    rng = np.random.default_rng(11)
    a, b = rng.uniform(1.0, a_max, (2, 5100))
    c1 = rng.uniform(0.0, 1.0, 5100) * np.sqrt(a * b)
    c2 = rng.uniform(-c2_max, c2_max, 5100) * c1
    physical, entangled, _ = _standard_bounds(a, b, c1, c2)
    separable = np.flatnonzero(physical & ~entangled)[:n]
    assert separable.size == n
    assert_product_witnesses(np.array((a, b, c1, c2))[:, separable], psd_tol)


def test_empty_batch():
    out = _geof_forms(*np.zeros((4, 0)))
    assert [x.shape for x in out] == [(0,), (0, 3), (0,)]


def test_product_witnesses_need_no_curve(monkeypatch):
    def curve(*args):
        raise AssertionError("_curve called on a batch of separable states")

    monkeypatch.setattr(geof_module, "_curve", curve)
    assert_product_witnesses(random_standard_forms(5, 40)[:, 1::2])  # the separable ones
    with pytest.raises(AssertionError, match="_curve called"):
        _geof_forms(*random_standard_forms(5, 2))


def test_geof_submodule_import_gives_the_module():
    # The module is callable for the benchmark's `eofbounds.geof(v)`, and
    # has no function geof: the report is the one GeoF answer.
    import eofbounds.geof as module

    assert isinstance(module, types.ModuleType)
    assert module is importlib.import_module("eofbounds.geof")
    assert callable(module) and not hasattr(module, "geof")


def test_module_call_is_the_report(monkeypatch):
    # The benchmark's entry, the module call, gives the report's GeoF, its
    # witness padded with zero angles and its standard form, bit for bit,
    # and is infeasible with value inf where the report has none.
    states = [v for _, _, v in general_frame_corpus(13, 30)] + random_forms(19, 20)
    for v in states:
        rep, res = bound_report(v), geof_module(v)
        assert res.feasible and res.value == rep.geof
        assert np.array_equal(res.argmin_parameters, np.insert(rep.geof_witness, (0, 1), 0.0))
        assert np.array_equal(res.reference_matrix, rep.standard_form.to_covmat().matrix)
    monkeypatch.setattr(geof_module, "_certified", lambda a, *args: np.zeros(np.shape(a), dtype=bool))
    rep, res = bound_report(states[1]), geof_module(states[1])
    assert (rep.geof, rep.geof_witness) == (None, None)
    assert res.value == math.inf and res.feasible is False


def test_never_above_dense_angle_grid():
    # Independent of any search: rho on 20001 angles of the same curve,
    # built from its own square root of Vx - P.
    rng = np.random.default_rng(23)
    forms = [tuple(random_standard_form(rng, a_max=50.0, symmetric=sym, entangled=True))
             for sym in (True, False) for _ in range(200)]
    a, b = rng.uniform(1.0, 50.0, (2, 200))
    c1 = rng.uniform(0.0, 1.0, 200) * np.sqrt(a * b)
    ok = _standard_bounds(a, b, c1, 0.0 * a)[0]
    forms += list(zip(a[ok], b[ok], c1[ok], 0.0 * a[ok]))
    value, _, _ = _geof_forms(*np.array(forms).T)
    assert not np.isnan(value).any()
    phi = np.linspace(0.0, math.pi, 20001)
    for (a, b, c1, c2), v in zip(forms, value):
        vx = np.array([[a, c1], [c1, b]])
        w, q = np.linalg.eigh(vx - np.linalg.inv(np.array([[a, c2], [c2, b]])))
        u = (q * np.sqrt(np.maximum(w, 0.0))) @ q.T @ np.array([np.cos(phi), np.sin(phi)])
        rho = np.min(np.abs(c1 - u[0] * u[1]) / np.sqrt((a - u[0] ** 2) * (b - u[1] ** 2)))
        assert v <= entanglement_entropy(math.sqrt((1.0 - rho) / (1.0 + rho))) + 1e-12


def test_no_full_family_witness_below_geof():
    # Outside the block-diagonal reduction: pure G <= V from the whole
    # 5-parameter family (pure_cms_from_parameters), drawn at random and as
    # local perturbations of the returned witness, never have less
    # entanglement than geof.
    rng = np.random.default_rng(31)
    n, feasible = 200, 0
    for i in range(150):
        sf = random_standard_form(rng, a_max=5.0, symmetric=i % 3 == 0, entangled=True)
        rep = bound_report(sf.to_covmat())
        witness = np.insert(rep.geof_witness, (0, 1), 0.0)
        frame = rep.standard_form.to_covmat().matrix
        s_max, r_max = 0.25 * math.log(max(sf.a, sf.b)), 2.0 * abs(witness[4])
        drawn = np.column_stack([
            rng.uniform(0.0, math.pi, n), rng.uniform(-s_max, s_max, n),
            rng.uniform(0.0, math.pi, n), rng.uniform(-s_max, s_max, n),
            rng.uniform(-r_max, r_max, n),
        ])
        nearby = witness + 10.0 ** rng.uniform(-7.0, -1.0, (n, 1)) * rng.normal(size=(n, 5))
        params = np.vstack([drawn, nearby])
        g = pure_cms_from_parameters(params)
        below = np.linalg.eigvalsh(frame - g)[:, 0] >= 0.0
        ent = entanglement_entropy_vec(np.exp(-2.0 * np.abs(params[below, 4])))
        assert np.all(ent >= rep.geof - 1e-9), (sf, rep.geof, ent.min())
        feasible += below.sum()
    assert feasible > 5000
