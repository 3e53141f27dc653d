"""Entanglement-of-formation bounds from classical-noise decompositions.

Adding classical Gaussian noise (a PSD matrix on the covariance level)
can only lower the entanglement of formation.  Writing V = V0 + Delta
with Delta >= 0 therefore orders EoF(V) <= EoF(V0), and symmetric states
(m, m, c1, c2) built on the standard form (a, b, c1, c2) of V give
computable bounds:

* lower bound from the symmetric state with m = max(a, b),
* a tighter lower bound from the midpoint m = (a + b)/2,
* upper bound from the symmetric state with m = min(a, b), when that
  state is physical,
* a searched upper bound, the least EoF of the symmetric states
  (m, m, t c1, t c2) on the PSD boundary of V - V', a line in t that
  also covers many states whose natural upper state is unphysical.

The first four are closed forms in (a, b, c1, c2).  `_standard_bounds`
evaluates them, with the physicality and PPT tests of the state and the
EeoF estimator, in one pass over numpy arrays of standard forms: one
state for `bound_report`, a whole grid for a scan.  The searched bound
evaluates the same closed forms at the nodes of its line.  Every value is
therefore invariant under local symplectics and under swapping the modes.
The certified GeoF of `geof._geof_forms` is an upper bound as well, and
never above the symmetric-state ones (see `bound_report`).

Every one-state function (`bound_report`, the single bounds, `eeof`,
`eof_symmetric`, `is_entangled`) checks and reduces its CovMat or
StandardForm in `_checked`, raising NonPhysicalStateError if unphysical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import entanglement_entropy_vec
from .errors import NonPhysicalStateError, NotSymmetricError
from .geof import _geof_forms
from .states import (
    CovMat,
    Invariants,
    StandardForm,
    _spectra,
    invariants,
    require_physical,
    standard_form_from_invariants,
)
from .symplectic import PSD_TOL, least_mu_minus

#: Default tolerance for comparisons between entanglement values.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class _StandardBounds:
    """Closed-form results of `_standard_bounds`, one entry per standard form."""

    physical: np.ndarray
    # Symplectic eigenvalues of the state and of its partial transpose
    # (c2 -> -c2); nu_minus and nu_t are NaN where det V < 0.
    nu_minus: np.ndarray
    nu_plus: np.ndarray
    nu_t: np.ndarray
    nu_t_plus: np.ndarray
    entangled: np.ndarray
    lower_natural: np.ndarray
    lower_sigma: np.ndarray
    upper_natural: np.ndarray  # NaN where upper_physical is False
    upper_physical: np.ndarray
    eeof: np.ndarray


def _symmetric(m, c1, c2, psd_tol: float, least):
    """(PPT eigenvalue, physical) of the symmetric states (m, m, c1, c2), c1 >= |c2|."""
    with np.errstate(invalid="ignore"):
        nu_minus = np.sqrt((m - c1) * (m - c2))
        return np.sqrt((m - c1) * (m + c2)), (m - c1 > psd_tol) & (nu_minus >= least)


def _standard_bounds(a, b, c1, c2, psd_tol: float = PSD_TOL) -> _StandardBounds:
    """Every closed-form bound of the standard forms (a, b, c1, c2), c1 >= |c2|.

    The standard form is positive definite iff lambda_min(Vx) > psd_tol,
    with Vx = [[a, c1], [c1, b]]; its symplectic eigenvalues and those of
    its partial transpose (c2 -> -c2) come from `states._spectra`.  The
    symmetric state (m, m, c1, c2) has PPT eigenvalue
    sqrt((m - c1)(m + c2)) and is physical iff m - c1 > psd_tol and
    sqrt((m - c1)(m - c2)) >= 1 - psd_tol.  Each test
    nu_minus >= 1 - psd_tol also allows the roundoff of its own
    arithmetic (`least_mu_minus` with scale max(a, b)).
    """
    a, b, c1, c2 = (np.asarray(x, dtype=float) for x in (a, b, c1, c2))
    least = least_mu_minus(np.maximum(a, b), psd_tol)
    ab = a * b
    (nu_minus, nu_t), (nu_plus, nu_t_plus) = _spectra(a, b, c1, np.array((c2, -c2)))
    with np.errstate(invalid="ignore", divide="ignore"):
        lam_min = 2.0 * (ab - c1 * c1) / ((a + b) + np.sqrt((a - b) ** 2 + 4.0 * c1 * c1))
        physical = (lam_min > psd_tol) & (nu_minus >= least)
        nu_lower, _ = _symmetric(np.maximum(a, b), c1, c2, psd_tol, least)
        nu_sigma, _ = _symmetric((a + b) / 2.0, c1, c2, psd_tol, least)
        nu_upper, upper_physical = _symmetric(np.minimum(a, b), c1, c2, psd_tol, least)
    lower, sigma, upper, estimate = entanglement_entropy_vec(
        np.array((nu_lower, nu_sigma, nu_upper, nu_t))
    )
    return _StandardBounds(
        physical=physical,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
        nu_t=nu_t,
        nu_t_plus=nu_t_plus,
        entangled=nu_t < 1.0 - psd_tol,
        lower_natural=lower,
        lower_sigma=sigma,
        upper_natural=np.where(upper_physical, upper, np.nan),
        upper_physical=upper_physical,
        eeof=estimate,
    )


def _reduced(
    v: CovMat | StandardForm, psd_tol: float, inv: Invariants | None = None
) -> tuple[StandardForm, _StandardBounds | None]:
    """Standard form of one physical state, and the closed-form pass if it ran.

    A CovMat is checked once by `require_physical` and reduced once, from
    its invariants `inv` when the caller has them; the pass does not run,
    and its standard form is not tested again, since at psd_tol = 0 the
    closed form can fail the roundoff of a reduced pure state.  A
    StandardForm is checked by the pass's own `physical` flag.
    """
    if isinstance(v, CovMat):
        require_physical(v, psd_tol)
        return standard_form_from_invariants(invariants(v) if inv is None else inv), None
    res = _standard_bounds(*v, psd_tol)
    if not res.physical:
        mu = float(_spectra(*v)[0])
        raise NonPhysicalStateError(
            f"standard form {tuple(v)} is not physical: mu_minus = {mu:.12g}", mu)
    return v, res


def _checked(
    v: CovMat | StandardForm, psd_tol: float, inv: Invariants | None = None
) -> tuple[StandardForm, _StandardBounds]:
    """Standard form of one physical state (`_reduced`) and its closed-form pass."""
    sf, res = _reduced(v, psd_tol, inv)
    return sf, _standard_bounds(*sf, psd_tol) if res is None else res


def natural_bounds(
    v: CovMat | StandardForm, psd_tol: float = PSD_TOL
) -> tuple[float, float | None]:
    """EoF bounds (lower, upper) from the symmetric states (m, m, c1, c2).

    m = max(a, b) gives a lower bound (that state is v plus noise, so it
    is always physical); m = min(a, b) gives an upper bound unless that
    state is unphysical, in which case `upper` is None.  Both are
    computed on the standard form, so they do not depend on the local
    frame v is given in.
    """
    res = _checked(v, psd_tol)[1]
    return float(res.lower_natural), float(res.upper_natural) if res.upper_physical else None


def sigma_lower_bound(v: CovMat | StandardForm, psd_tol: float = PSD_TOL) -> float:
    """Lower bound from the midpoint symmetric state.

    The midpoint state (m, m, c1, c2) with m = (a + b)/2 is the average of
    the standard form and its mode swap, so it is physical, and its PPT
    eigenvalue is sqrt((m - c1)(m + c2)).  Always at least as tight as
    the larger-block bound, and never above the true EoF.
    """
    return float(_checked(v, psd_tol)[1].lower_sigma)


def _searched(a, b, c1, c2, steps: int, psd_tol: float) -> float | None:
    """The searched upper bound of one physical standard form (a, b, c1, c2).

    v - V' splits into an x sector [[a - m, k], [k, b - m]], k = (1 - t) c1,
    and a p sector with (1 - t) c2, |c2| <= c1; both are PSD iff
    m <= m(t), the smaller root of (a - m)(b - m) = k^2.  With
    d = |a - b| that root is min(a, b) - (hypot(d, 2k) - d)/2, exactly
    min(a, b) at t = 1.  While m > t c1, both the squared PPT eigenvalue
    (m - t c1)(m + t c2) and (m - t c1)(m - t c2) of the physicality test
    rise with m, so at each t the boundary point m(t) is the best one.
    Physicality implies m >= 1 within its allowance, so m is not tested
    against 1.
    """
    t = np.linspace(0.0, 1.0, steps + 1)[1:]
    d = abs(a - b)
    m = min(a, b) - (np.hypot(d, 2.0 * (1.0 - t) * c1) - d) / 2.0
    nu_t, feasible = _symmetric(m, t * c1, t * c2, psd_tol, least_mu_minus(max(a, b), psd_tol))
    if not np.any(feasible):
        return None
    return float(np.min(entanglement_entropy_vec(nu_t[feasible])))


def searched_upper_bound(
    v: CovMat | StandardForm, steps: int = 64, psd_tol: float = PSD_TOL
) -> float | None:
    """Tightest upper bound over symmetric states with rescaled correlations.

    Minimizes the symmetric-state EoF over the family V' with blocks m*I
    and correlations t*diag(c1, c2), t in (0, 1], subject to v - V' being
    PSD and V' physical.  The best V' at each t lies on the PSD boundary
    m = m(t) (see `_searched`), evaluated at the nodes t = 1/steps, ..., 1;
    t = 1 is the natural upper state.  Doubling `steps` refines the nodes,
    so the value never increases.  Works on the standard form of v, checked
    as by `bound_report`.  Returns None when no node is feasible.
    """
    return _searched(*_reduced(v, psd_tol)[0], steps, psd_tol)


def eeof(v: CovMat | StandardForm, psd_tol: float = PSD_TOL) -> float:
    """EoF estimator: the symmetric-state formula applied to a general state.

    f of the PPT eigenvalue of the standard form.  Sandwiched by the same
    symmetric-state bounds as the true EoF, but not proven equal to it
    for non-symmetric states.
    """
    return float(_checked(v, psd_tol)[1].eeof)


def eof_symmetric(v: CovMat | StandardForm, tol: float = 1e-9, psd_tol: float = PSD_TOL) -> float:
    """Exact entanglement of formation of a symmetric two-mode Gaussian state.

    The state is symmetric iff its standard form has |a - b| <= tol, in
    whatever local frame v is given.

    Raises
    ------
    NotSymmetricError
        If |a - b| > tol.
    """
    sf, res = _checked(v, psd_tol)
    if abs(sf.a - sf.b) > tol:
        raise NotSymmetricError(f"standard form has |a - b| = {abs(sf.a - sf.b):.3e} > {tol:.3e}")
    return float(res.eeof)


def is_entangled(v: CovMat | StandardForm, tol: float = PSD_TOL) -> bool:
    """PPT test: entangled iff the transposed spectrum dips below 1 - tol."""
    return bool(_checked(v, tol)[1].entangled)


@dataclass(frozen=True)
class BoundFlags:
    """Diagnostics for the constructed bound states."""

    upper_natural_physical: bool
    searched_feasible: bool
    geof_feasible: bool | None
    hierarchy_ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundReport:
    """Full bound hierarchy for one state (values in nats)."""

    lower_natural: float
    lower_sigma: float
    upper_natural: float | None
    upper_searched: float | None
    eeof: float
    geof: float | None
    entangled: bool
    flags: BoundFlags
    standard_form: StandardForm


def bound_report(
    v: CovMat | StandardForm,
    include_geof: bool = True,
    psd_tol: float = PSD_TOL,
    bound_tol: float = BOUND_TOL,
    geof_tol: float = 1e-6,
) -> BoundReport:
    """Assemble every bound for a physical state and verify the hierarchy.

    A CovMat is checked once by `require_physical` and reduced once to its
    standard form; a StandardForm is checked by the closed-form pass
    itself.  `_standard_bounds` gives every closed-form value, the core
    of `searched_upper_bound` the searched one and the array search
    `geof._geof_forms` the GeoF, all on that standard form, as a scan
    does for a whole grid, and the report carries it.  Violations of the
    expected ordering are recorded in the flags rather than raised, so
    callers can inspect borderline numerics.

    A certified `geof` is an upper bound on the EoF: its witness G <= V
    gives E(G) >= GEoF(V) >= EoF(V).  It is also never above
    `upper_natural` or `upper_searched`: for a symmetric V' <= V,
    EoF(V') = GEoF(V') >= GEoF(V), since every pure G <= V' is below V.

    Raises
    ------
    NonPhysicalStateError
        If v is not physical within psd_tol.
    """
    return _report(*_checked(v, psd_tol), include_geof, psd_tol, bound_tol, geof_tol)


def _report(
    sf: StandardForm,
    res: _StandardBounds,
    include_geof: bool,
    psd_tol: float,
    bound_tol: float,
    geof_tol: float,
) -> BoundReport:
    """`bound_report` of a checked standard form sf and its closed-form pass res."""
    lower, sigma, estimate = (float(x) for x in (res.lower_natural, res.lower_sigma, res.eeof))
    upper_physical = bool(res.upper_physical)
    upper = float(res.upper_natural) if upper_physical else None

    geof_value: float | None = None
    geof_feasible: bool | None = None
    if include_geof:
        value, _, feasible, _ = _geof_forms(*sf, psd_tol)
        geof_feasible = bool(feasible[0])
        geof_value = float(value[0]) if geof_feasible else None

    searched = _searched(*sf, 64, psd_tol)

    violations: list[str] = []

    def check(name: str, lo: float | None, hi: float | None, tol: float) -> None:
        if lo is not None and hi is not None and lo > hi + tol:
            violations.append(f"{name}: {lo:.12g} > {hi:.12g} + {tol:g}")

    check("lower_natural<=lower_sigma", lower, sigma, bound_tol)
    check("lower_sigma<=upper_natural", sigma, upper, bound_tol)
    check("lower_sigma<=upper_searched", sigma, searched, bound_tol)
    check("lower_natural<=eeof", lower, estimate, bound_tol)
    check("eeof<=upper_natural", estimate, upper, bound_tol)
    check("eeof<=upper_searched", estimate, searched, bound_tol)
    check("lower_sigma<=geof", sigma, geof_value, geof_tol)
    check("geof<=upper_natural", geof_value, upper, geof_tol)
    check("geof<=upper_searched", geof_value, searched, geof_tol)

    flags = BoundFlags(
        upper_natural_physical=upper_physical,
        searched_feasible=searched is not None,
        geof_feasible=geof_feasible,
        hierarchy_ok=not violations,
        violations=tuple(violations),
    )
    return BoundReport(
        lower_natural=lower,
        lower_sigma=sigma,
        upper_natural=upper,
        upper_searched=searched,
        eeof=estimate,
        geof=geof_value,
        entangled=bool(res.entangled),
        flags=flags,
        standard_form=sf,
    )
