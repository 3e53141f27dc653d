import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from eofbounds import bounds
from eofbounds.bounds import _ROWS, GEOF_TOL, BoundReport, _standard_bounds, bound_report
from eofbounds.cli import main
from eofbounds.entanglement import entanglement_entropy, entanglement_entropy_vec
from eofbounds.errors import DomainError, NonPhysicalStateError
from eofbounds.geof import _geof_forms
from eofbounds.states import CovMat, Invariants, StandardForm, _standard_forms, invariants
from eofbounds.symplectic import PSD_TOL

from conftest import (
    is_physical,
    loewner_ge,
    random_local_symplectic,
    random_psd,
    random_standard_form,
    unphysical_matrices,
)

SQ02 = math.sqrt(0.2)


# ---------------------------------------------------------------------------
# natural bounds
# ---------------------------------------------------------------------------


def test_natural_bounds_symmetric_collapse(rng):
    v = random_standard_form(rng, symmetric=True).to_covmat()
    rep = bound_report(v, include_geof=False)
    assert rep.lower_natural == pytest.approx(rep.eeof, abs=1e-12)
    assert rep.upper_natural == pytest.approx(rep.eeof, abs=1e-12)


def test_natural_bounds_product_state_zero():
    rep = bound_report(CovMat.from_standard_form(1.4, 2.0, 0.0, 0.0), include_geof=False)
    assert rep.lower_natural == 0.0 and rep.upper_natural == 0.0


def test_natural_bounds_worked_example():
    # a=1.2, b=1.5, c1=-c2=sqrt(0.2): lower state has nu-tilde
    # 1.5-sqrt(0.2) >= 1 (bound 0), upper state 1.2-sqrt(0.2).
    v = CovMat.from_standard_form(1.2, 1.5, SQ02, -SQ02)
    rep = bound_report(v, include_geof=False)
    lower, upper = rep.lower_natural, rep.upper_natural
    assert upper is not None
    assert lower == pytest.approx(entanglement_entropy(1.5 - SQ02), abs=1e-12)
    assert lower == 0.0
    assert upper == pytest.approx(entanglement_entropy(1.2 - SQ02), abs=1e-12)
    assert lower <= upper


def test_natural_bounds_unphysical_upper_absent(rng):
    found = False
    for _ in range(3000):
        sf = random_standard_form(rng, entangled=True, min_asymmetry=0.1)
        v = sf.to_covmat()
        upper = bound_report(v, include_geof=False).upper_natural
        small = min(sf.a, sf.b)
        upper_state = CovMat.from_standard_form(small, small, sf.c1, sf.c2)
        if not is_physical(upper_state):
            assert upper is None
            found = True
            break
        assert upper is not None
    assert found


def test_bounds_with_incomparable_blocks_are_those_of_the_standard_form(rng):
    # Conjugate so the blocks of the frame are Loewner incomparable; the
    # bounds are those of the standard form's larger and smaller block.
    found = False
    for _ in range(200):
        sf = random_standard_form(rng, min_asymmetry=0.2)
        v = sf.to_covmat().conjugate(random_local_symplectic(rng))
        a, b = v.block_a, v.block_b
        if not loewner_ge(a, b) and not loewner_ge(b, a):
            rep = bound_report(v, include_geof=False)
            lower, upper = rep.lower_natural, rep.upper_natural
            big, small = max(sf.a, sf.b), min(sf.a, sf.b)
            lower_state = CovMat.from_standard_form(big, big, sf.c1, sf.c2)
            expected = bound_report(lower_state, include_geof=False).eeof
            assert lower == pytest.approx(expected, abs=1e-9)
            upper_state = CovMat.from_standard_form(small, small, sf.c1, sf.c2)
            if is_physical(upper_state):
                expected = bound_report(upper_state, include_geof=False).eeof
                assert upper == pytest.approx(expected, abs=1e-9)
            found = True
            break
    assert found


def test_natural_bounds_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        bound_report(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4), include_geof=False)


# ---------------------------------------------------------------------------
# sigma bound
# ---------------------------------------------------------------------------


def test_sigma_equals_eof_on_symmetric(rng):
    v = random_standard_form(rng, symmetric=True).to_covmat()
    rep = bound_report(v, include_geof=False)
    assert rep.lower_sigma == pytest.approx(rep.eeof, abs=1e-12)


def test_sigma_worked_example():
    v = CovMat.from_standard_form(1.2, 1.5, SQ02, -SQ02)
    assert bound_report(v, include_geof=False).lower_sigma == pytest.approx(
        entanglement_entropy(1.35 - SQ02), abs=1e-12
    )


def test_sigma_dominates_natural_lower(rng):
    for _ in range(200):
        v = random_standard_form(rng).to_covmat()
        rep = bound_report(v, include_geof=False)
        assert rep.lower_sigma >= rep.lower_natural - 1e-9


def test_sigma_state_always_physical(rng):
    for _ in range(500):
        v = random_standard_form(rng).to_covmat()
        mid = (v.block_a + v.block_b) / 2.0
        assert is_physical(CovMat.from_blocks(mid, mid, v.block_c))


def test_sigma_in_a_general_frame_is_the_standard_form_value():
    # Loewner-comparable raw blocks with a non-diagonal correlation block
    # once served as the midpoint frame: on physical states that raised,
    # or gave a "lower bound" above the GeoF.
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        sf = random_standard_form(rng, entangled=True)
        v = sf.to_covmat().conjugate(random_local_symplectic(rng, squeeze_max=0.3))
        if not (loewner_ge(v.block_a, v.block_b) or loewner_ge(v.block_b, v.block_a)):
            continue
        checked += 1
        rep = bound_report(v)
        assert rep.lower_sigma == pytest.approx(
            bound_report(sf.to_covmat(), include_geof=False).lower_sigma, abs=1e-9)
        assert rep.lower_sigma <= rep.geof + 1e-6


# ---------------------------------------------------------------------------
# searched upper bound
# ---------------------------------------------------------------------------


def test_searched_upper_symmetric_reaches_eof(rng):
    # The state itself is in the family (m=a, t=1).
    for _ in range(20):
        v = random_standard_form(rng, symmetric=True, entangled=True).to_covmat()
        rep = bound_report(v, include_geof=False)
        assert rep.upper_searched is not None
        assert rep.upper_searched <= rep.eeof + 1e-12


def test_searched_upper_is_valid_upper_bound(rng):
    for _ in range(30):
        v = random_standard_form(rng, entangled=True).to_covmat()
        rep = bound_report(v)
        if rep.upper_searched is None:
            continue
        assert rep.geof <= rep.upper_searched + 1e-6


def test_searched_upper_covers_unphysical_natural(rng):
    # When the natural upper state is unphysical, a feasible family point
    # restores an upper bound for some states.
    restored = 0
    examined = 0
    for _ in range(5000):
        sf = random_standard_form(rng, entangled=True, min_asymmetry=0.05)
        v = sf.to_covmat()
        rep = bound_report(v, include_geof=False)
        if rep.upper_natural is not None:
            continue
        examined += 1
        su = rep.upper_searched
        if su is not None:
            assert bound_report(v).geof <= su + 1e-6
            restored += 1
        if examined >= 40:
            break
    assert examined > 0
    assert restored > 0


def mesh_searched(a, b, c1, c2, steps=64, psd_tol=PSD_TOL):
    """The searched bound over a (steps + 1) x steps mesh of (m, t), m in [1, min(a, b)].

    The brute-force search the boundary line replaced, kept as a
    reference: every mesh point with v - V' >= -psd_tol (x and p sectors,
    c1 >= |c2|) and V' physical is a candidate.
    """
    m, t = (x.ravel() for x in np.meshgrid(
        np.linspace(1.0, min(a, b), steps + 1), np.linspace(0.0, 1.0, steps + 1)[1:],
        indexing="ij"))
    da, db, off = a - m, b - m, (1.0 - t) * max(abs(c1), abs(c2))
    psd_ok = (da >= -psd_tol) & (db >= -psd_tol) & (da * db - off**2 >= -psd_tol)
    with np.errstate(invalid="ignore"):
        physical = bounds._physical(m - t * c1, np.sqrt((m - t * c1) * (m - t * c2)), max(a, b), psd_tol)
        nu_t = np.sqrt((m - t * c1) * (m + t * c2))
    feasible = psd_ok & physical
    return float(np.min(entanglement_entropy_vec(nu_t[feasible]))) if feasible.any() else None


def test_searched_upper_never_above_the_mesh():
    # The boundary line at the mesh's t nodes is never looser than the
    # mesh, and feasible wherever the mesh is.
    rng = np.random.default_rng(7)
    entangled_covered = lowered = 0
    for i in range(2000):
        sf = random_standard_form(rng, a_max=5.0, entangled=bool(i % 2))
        mesh, line = mesh_searched(*sf), bound_report(sf, include_geof=False).upper_searched
        if mesh is None:
            continue
        assert line is not None, sf
        assert line <= mesh + 1e-12, (sf, line, mesh)
        entangled_covered += mesh > 0.0
        lowered += line < mesh
    assert entangled_covered > 300
    assert lowered > 300


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def test_report_separable_product_state():
    rep = bound_report(CovMat.from_standard_form(1.5, 2.0, 0.0, 0.0))
    assert not rep.entangled
    assert rep.lower_natural == 0.0
    assert rep.lower_sigma == 0.0
    assert rep.upper_natural == 0.0
    assert rep.eeof == 0.0
    assert rep.geof == 0.0
    assert not rep.violations


def test_report_symmetric_collapse(rng):
    v = random_standard_form(rng, symmetric=True, entangled=True).to_covmat()
    rep = bound_report(v)
    e = bound_report(v, include_geof=False).eeof
    for value in (rep.lower_natural, rep.lower_sigma, rep.upper_natural, rep.eeof):
        assert value == pytest.approx(e, abs=1e-9)
    assert rep.geof == pytest.approx(e, abs=1e-6)
    assert rep.entangled
    assert not rep.violations


def test_symmetric_bounds_are_the_eof():
    # For a symmetric state every symmetric-state bound is the state's own
    # EoF: the lower and upper natural states and the midpoint are the state.
    # So bound_report(v).eeof is its exact EoF, as a StandardForm or a CovMat.
    rng = np.random.default_rng(4)
    for _ in range(500):
        sf = random_standard_form(rng, symmetric=True)
        for v in (sf, sf.to_covmat()):
            rep = bound_report(v, include_geof=False)
            assert rep.lower_natural == rep.lower_sigma == rep.upper_natural, (v, rep)
            assert rep.upper_searched <= rep.upper_natural, (v, rep)
            assert abs(rep.eeof - rep.lower_sigma) <= 1e-12, (v, rep)


def test_report_hierarchy_random_states(rng):
    for _ in range(25):
        v = random_standard_form(
            rng, entangled=True, physical_upper=True, min_asymmetry=0.02
        ).to_covmat()
        rep = bound_report(v)
        assert not rep.violations, rep.violations
        assert rep.lower_natural <= rep.lower_sigma + 1e-9
        assert rep.lower_sigma <= rep.geof + 1e-6
        assert rep.geof <= rep.upper_natural + 1e-6
        assert rep.lower_natural - 1e-9 <= rep.eeof <= rep.upper_natural + 1e-9


def test_report_monotone_under_noise(rng):
    for _ in range(15):
        v = random_standard_form(rng, entangled=True).to_covmat()
        noisy = CovMat(v.matrix + random_psd(rng, scale=0.2))
        r1 = bound_report(v)
        r2 = bound_report(noisy)
        assert r2.eeof <= r1.eeof + 1e-12
        assert r2.geof <= r1.geof + 2e-6


def test_geof_sandwiched_by_comparable_symmetric_states(rng):
    # For physical V_MM <= V_AB <= V_NN sharing the correlation block,
    # eof(NN) <= geof(V_AB) <= eof(MM) within the optimizer tolerance.
    count = 0
    while count < 25:
        sf = random_standard_form(rng, symmetric=True, entangled=True)
        m, c1, c2 = sf.a, sf.c1, sf.c2
        a = m + rng.uniform(0.0, 0.6)
        b = a + rng.uniform(0.0, 0.6)
        n = b + rng.uniform(0.0, 0.6)
        v_ab = CovMat.from_standard_form(a, b, c1, c2)
        upper = bound_report(CovMat.from_standard_form(m, m, c1, c2), include_geof=False).eeof
        lower = bound_report(CovMat.from_standard_form(n, n, c1, c2), include_geof=False).eeof
        g = bound_report(v_ab).geof
        assert lower - 1e-9 <= g <= upper + 1e-6
        count += 1


def test_sigma_is_best_channel_lower_bound(rng):
    # Any symmetric block M' >= sigma's midpoint block cannot produce a
    # tighter channel-compatible lower bound: its symmetric state has
    # EoF <= the midpoint value (randomized counterexample search).
    eps = 1e-6
    for _ in range(100):
        sf = random_standard_form(rng, entangled=True)
        v = sf.to_covmat()
        mid = (v.block_a + v.block_b) / 2.0
        bump = random_psd(rng, n=2, scale=0.3)
        candidate = CovMat.from_blocks(
            mid + bump + eps * np.eye(2), mid + bump + eps * np.eye(2), v.block_c
        )
        delta_ok = loewner_ge(v.matrix, candidate.matrix)
        value_ok = (bound_report(candidate, include_geof=False).eeof
                    <= bound_report(v, include_geof=False).lower_sigma + 1e-9)
        assert (not delta_ok) or value_ok


def local_channel(rng, kind):
    """(X, Y) of W = X V X + Y for a random local channel of the given kind on
    mode A, B or both: a pure-loss attenuator of transmissivity eta in
    [0.05, 1], a quantum-limited amplifier of gain g in [1, 3], or added
    noise Exp(0.5), each mode with its own parameter."""
    x, y = np.ones(4), np.zeros(4)
    for mode in ((0,), (1,), (0, 1))[rng.integers(3)]:
        k = slice(2 * mode, 2 * mode + 2)
        if kind == "attenuator":
            eta = rng.uniform(0.05, 1.0)
            x[k], y[k] = math.sqrt(eta), 1.0 - eta
        elif kind == "amplifier":
            g = rng.uniform(1.0, 3.0)
            x[k], y[k] = math.sqrt(g), g - 1.0
        else:
            y[k] = rng.exponential(0.5)
    return np.diag(x), np.diag(y)


def test_local_gaussian_channels_never_raise_the_eof():
    # The paper's premise: no local channel raises the EoF.  So every lower
    # bound of W = X V X + Y is at most every upper bound of V, and the GeoF
    # of W at most that of V.  eeof is an estimator, not a bound: not checked.
    rng = np.random.default_rng(41)
    lows, highs = ("lower_natural", "lower_sigma"), ("upper_natural", "upper_searched", "geof")
    certified = 0
    for _ in range(500):
        sf = random_standard_form(rng, a_max=6.0, entangled=True)
        v = sf.to_covmat().conjugate(random_local_symplectic(rng, 0.5))
        before = bound_report(v)
        for kind in ("attenuator", "amplifier", "noise"):
            x, y = local_channel(rng, kind)
            after = bound_report(CovMat(x @ v.matrix @ x + y))
            uppers = [getattr(before, name) for name in highs if getattr(before, name) is not None]
            for name in lows:
                assert getattr(after, name) <= min(uppers) + GEOF_TOL, (sf, kind, name, after, before)
            if after.geof is not None and before.geof is not None:
                assert after.geof <= before.geof + GEOF_TOL, (sf, kind, after.geof, before.geof)
                certified += 1
    assert certified > 1400


def test_report_rejects_unphysical():
    with pytest.raises(NonPhysicalStateError):
        bound_report(CovMat.from_standard_form(1.0, 1.0, 0.4, -0.4))


def test_report_violation_strings(monkeypatch):
    # A searched bound of -1 breaks every order against it: each violation
    # names the pair, both values and the slack, in the order of the checks.
    monkeypatch.setattr(bounds, "_searched", lambda *args: -1.0)
    rep = bound_report(CovMat.from_standard_form(1.2, 1.5, 0.447, -0.447))
    assert rep.violations == (
        "lower_sigma<=upper_searched: 0.0181085519468 > -1 + 1e-09",
        "eeof<=upper_searched: 0.0271980063558 > -1 + 1e-09",
        "geof<=upper_searched: 0.031549353875 > -1 + 1e-06",
    )


def reduced_without_geof(v):
    return bound_report(v, include_geof=False).standard_form


#: The one entry point that checks a state, bound_report, with the GeoF and
#: its witness and without them.
ONE_STATE_FUNCTIONS = (bound_report, reduced_without_geof)


def test_check_rejects_non_positive_and_subvacuum_matrices():
    # Only the positivity test rejects the first two: they have the
    # invariants of V, and the closed-form pass calls their standard form
    # physical.
    v = CovMat.from_standard_form(1.2, 1.5, 0.3, -0.2)
    for m, message in unphysical_matrices():
        w = CovMat(m)
        if "psd_tol" in message:
            assert invariants(w) == invariants(v)
            physical, _, _ = _standard_bounds(*_standard_forms(*invariants(w))[0])
            assert physical
        for func in ONE_STATE_FUNCTIONS:
            with pytest.raises(NonPhysicalStateError, match=re.escape(message)):
                func(w)


#: A physical entangled state, for the tolerance checks below.
PHYSICAL = StandardForm(1.2, 1.5, 0.447, -0.447)


@pytest.mark.parametrize("call", [
    lambda: entanglement_entropy(math.nan),
    lambda: bound_report(PHYSICAL, psd_tol=math.nan),
    lambda: bound_report(PHYSICAL, psd_tol=math.inf),
    lambda: bound_report(PHYSICAL, psd_tol=-1e-3),
], ids=["entanglement_entropy-nan", "bound_report-psd_tol-nan",
        "bound_report-psd_tol-inf", "bound_report-psd_tol-negative"])
def test_arguments_that_switch_checks_off_are_rejected(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("v", [np.eye(4), np.eye(4).tolist(), tuple(PHYSICAL)],
                         ids=["array", "nested-list", "tuple"])
def test_bound_report_takes_only_its_three_types(v):
    # Neither a bare matrix nor a bare 4-tuple is read as a state.
    with pytest.raises(TypeError, match=r"^bound_report takes a CovMat, StandardForm or Invariants, got "):
        bound_report(v)


def test_one_state_functions_reject_unphysical_standard_form():
    # A StandardForm is checked in closed form (mu_minus = 0.917).
    sf = StandardForm(1.0, 1.0, 0.4, -0.4)
    for func in ONE_STATE_FUNCTIONS:
        with pytest.raises(NonPhysicalStateError):
            func(sf)


def test_one_state_functions_solve_one_eigenproblem_per_covmat(monkeypatch):
    # The check tests a CovMat for positivity with one eigvalsh and then
    # works on its standard form; a StandardForm needs no eigen-solver.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    ch, sh = math.cosh(1.0), math.sinh(1.0)
    for func in ONE_STATE_FUNCTIONS:
        calls.clear()
        func(CovMat.two_mode_squeezed(0.5))
        assert len(calls) == 1, func.__name__
    for func in ONE_STATE_FUNCTIONS:
        calls.clear()
        func(StandardForm(ch, ch, sh, -sh))
        assert not calls, func.__name__


SWAP = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])


def report_values(rep):
    return {
        "lower_natural": rep.lower_natural,
        "lower_sigma": rep.lower_sigma,
        "upper_natural": rep.upper_natural,
        "upper_searched": rep.upper_searched,
        "eeof": rep.eeof,
        "geof": rep.geof,
        "entangled": rep.entangled,
    }


def checked_report(v):
    """bound_report(v), after checking that its GeoF and witness are those of
    the array search on its standard form, bit for bit."""
    rep = bound_report(v)
    value, witness, _ = _geof_forms(*rep.standard_form)
    assert (rep.geof, rep.geof_witness) == (
        (None, None) if np.isnan(value[0]) else (value[0], tuple(witness[0])))
    return rep


def test_report_invariant_under_local_symplectics_and_mode_swap():
    # Metamorphic: every reported value is a function of the standard form
    # alone, so a random local frame, with or without swapping the modes,
    # must not move it.  The inputs end with pure states (TMSV).
    rng = np.random.default_rng(7)
    squeezing = np.linspace(0.0, 2.0, 21)
    for i in range(240 + squeezing.size):
        if i < 240:
            v = random_standard_form(rng, entangled=i % 3 != 0).to_covmat()
        else:
            v = CovMat.two_mode_squeezed(squeezing[i - 240])
        plain = report_values(checked_report(v))
        for swap in (False, True):
            s = random_local_symplectic(rng, squeeze_max=0.3)
            if swap:
                s = SWAP @ s
            moved = report_values(checked_report(v.conjugate(s)))
            for key, value in plain.items():
                if isinstance(value, float):
                    assert moved[key] == pytest.approx(value, abs=1e-9), (i, swap, key)
                else:
                    assert moved[key] == value, (i, swap, key)


def same_bits(x, y):
    """x and y are NaN in the same places and bit for bit equal elsewhere."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        np.where(nan, 0.0, x).view(np.int64), np.where(nan, 0.0, y).view(np.int64))


@pytest.mark.parametrize("include_geof", [False, True], ids=["no-geof", "geof"])
def test_one_state_and_a_grid_take_the_same_pass(include_geof):
    # The standard forms of the README scan grid, its unphysical points
    # included, of two invariants with none (NaN, as a scan passes them) and
    # of random draws: the pass over all of them at once and over each
    # alone, with the 0-d inputs that `bound_report` gives it, agree bit for bit.
    axis = np.linspace(1.0, 4.0, 40)
    i1, i2 = np.concatenate((np.repeat(axis, 40), (1.44, -1.0))), np.append(np.tile(axis, 40), (1.44, 1.0))
    i3 = np.append(np.full(1600, -0.2), (-0.3, 0.0))
    i4 = np.append(0.4 * np.sqrt(i1[:1600] * i2[:1600]), (0.1, 0.0))
    forms, solved = _standard_forms(i1, i2, i3, i4)
    rng = np.random.default_rng(11)
    drawn = [tuple(random_standard_form(rng, a_max=5.0)) for _ in range(100)]
    forms = np.hstack((np.where(solved, forms, np.nan), np.array(drawn).T))
    physical, entangled, table = _standard_bounds(*forms, include_geof=include_geof)
    assert np.isnan(forms).any(axis=0).sum() == 2 and (~physical).sum() > 2 and entangled.any()
    for k, form in enumerate(forms.T):
        one_physical, one_entangled, rows = _standard_bounds(*form, include_geof=include_geof)
        assert (one_physical, one_entangled) == (physical[k], entangled[k]), k
        assert rows.shape == (len(_ROWS),) and same_bits(rows, table[:, k]), (k, rows, table[:, k])


# ---------------------------------------------------------------------------
# a standard form's and invariants' reports
# ---------------------------------------------------------------------------


def test_a_forms_report_invariants_are_those_of_its_matrix_bit_for_bit():
    # bound_report takes a form's invariants from their closed form, not from
    # its matrix: the bits of `invariants` on the matrix, signed zeros included,
    # over physical forms V >= I scaled up to 1e150, and NaN in I4 where an
    # overflow meets the zeros of its matmul chain (the last form).
    rng = np.random.default_rng(29)
    n = 12_000
    a, b = 1.0 + 3.0 * rng.random((2, n))
    c1 = rng.random(n) * np.sqrt((a - 1.0) * (b - 1.0))
    c2 = rng.uniform(-1.0, 1.0, n) * c1
    # From a scale of about 1e77 on, the spectra overflow to NaN unless a = b and c2 = -c1.
    high = slice(n - 1_500, n)
    b[high], c2[high] = a[high], -c1[high]
    # Signed zeros: c2 = ±0 in every tenth form, and c1 = ±0 too in every twentieth.
    c2[::10], c1[::20] = rng.choice((0.0, -0.0), n // 10), rng.choice((0.0, -0.0), n // 20)
    forms = np.array((a, b, c1, c2)) * 10.0 ** np.r_[rng.uniform(0.0, 75.0, n - 1_500),
                                                    rng.uniform(75.0, 150.0, 1_500)]
    checked = []
    for form in [*forms.T, (1e150, 1e150, 1e149, -1e149)]:
        sf = StandardForm(*map(float, form))
        try:
            got = bound_report(sf, include_geof=False).invariants
        except NonPhysicalStateError:
            continue
        checked.append(sf.a)
        assert same_bits(np.array(tuple(got)), np.array(tuple(invariants(sf.to_covmat())))), sf
    assert len(checked) >= 10_000 and sum(x > 1e77 for x in checked) > 100
    assert math.isnan(got.i4)
    assert np.signbit(forms[2:]).any() and (forms[2:] == 0.0).all(axis=0).any()


def test_invariants_report_is_that_of_their_solved_form():
    # Invariants are solved once by `_standard_forms`, and their report is that
    # of the StandardForm solved, field by field: its invariants are those of
    # that form's matrix, as analyze prints them.
    rng = np.random.default_rng(31)
    states = [CovMat.from_standard_form(1.2, 1.2, SQ02, -SQ02)] + [
        random_standard_form(rng, entangled=k % 2 == 0).to_covmat().conjugate(
            random_local_symplectic(rng)) for k in range(40)]
    for k, v in enumerate(states):
        inv = invariants(v)
        sf = StandardForm(*map(float, _standard_forms(*inv)[0]))
        got, want = (bound_report(x, include_geof=k < 4) for x in (inv, sf))
        for field in dataclasses.fields(BoundReport):
            assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), (k, field)
    assert got.invariants == invariants(sf.to_covmat())


@pytest.mark.parametrize("inv, message", [
    (Invariants(1.44, 1.44, -0.3, 0.1), "no standard form: need I1, I2 > 0 and "
     "I4/sqrt(I1*I2) >= 2|I3|, got Invariants(i1=1.44, i2=1.44, i3=-0.3, i4=0.1)"),
    (Invariants(math.nan, 1.0, 0.0, 0.0), "no standard form: need I1, I2 > 0 and "
     "I4/sqrt(I1*I2) >= 2|I3|, got Invariants(i1=nan, i2=1.0, i3=0.0, i4=0.0)"),
    (Invariants(1e-320, 1.0, 0.0, 1.0),
     "standard form contains non-finite entries: (9.99994433575849e-161, 1.0, inf, 0.0)"),
], ids=["no-real-form", "nan", "subnormal-i1"])
def test_invariants_without_a_finite_form_raise_domain_error(inv, message):
    # The messages analyze printed when its resolver solved invariants itself.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            bound_report(inv)
    assert str(info.value) == message


def test_a_form_or_invariants_build_no_covmat(monkeypatch, tmp_path, capsys):
    # Neither the library nor analyze rebuilds a form as a validated matrix.
    def refuse(self):
        raise AssertionError("a CovMat was built")

    monkeypatch.setattr(CovMat, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        CovMat.vacuum()
    for v in (StandardForm(1.2, 1.5, 0.447, -0.3), Invariants(1.44, 1.44, -0.2, 0.576)):
        assert bound_report(v).geof is not None
    path = tmp_path / "doc.json"
    for doc in ({"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.2}},
                {"invariants": {"I1": 1.44, "I2": 1.44, "I3": -0.2, "I4": 0.576}}):
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--input", str(path)]) == 0
    assert capsys.readouterr().err == ""
