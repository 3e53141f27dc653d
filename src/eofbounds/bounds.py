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
evaluates them, with the physicality and PPT tests of the state, its
spectra, the EeoF estimator and the certified GeoF of `geof._geof_forms`
with its witness, in one pass over numpy arrays of standard forms: one
state for `bound_report`, a whole grid for a scan.  The pass returns its
values as one table, a row for each name of `_ROWS`, and the report and
the scan read its rows by name.  The searched bound evaluates the same
closed forms at the nodes of its line.  Every value is therefore invariant
under local symplectics and under swapping the modes.  The GeoF is an upper bound as
well, and never above the symmetric-state ones (see `bound_report`).

For a symmetric state (a = b) all three symmetric states are the state
itself, so both lower bounds, the natural upper bound and the EeoF are its
exact EoF (Giedke et al., PRL 91, 107901, 2003): `bound_report(v).eeof`.
`bound_report` is the one route from a CovMat or StandardForm to its
standard form: it reduces the state once, and raises NonPhysicalStateError
on the verdict of that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import entanglement_entropy_vec
from .errors import DomainError
from .geof import _geof_forms
from .states import (
    CovMat,
    Invariants,
    StandardForm,
    _least_eigenvalue,
    _physical,
    _rejected,
    _spectra,
    _standard_forms,
    invariants,
)
from .symplectic import PSD_TOL

#: Slack of the hierarchy checks between entanglement values, and of those
#: against the GeoF, whose witness search stops short of the exact minimum.
BOUND_TOL = 1e-9
GEOF_TOL = 1e-6


#: The values of the closed-form pass, one row each of its table, in the order
#: the analyze report prints them: the symplectic eigenvalues of the state and
#: of its partial transpose (c2 -> -c2), NaN in nu_minus and nu_t where
#: det V < 0, then the bounds, then the GeoF's witness (s_a, s_b, r).
#: upper_natural is NaN where the natural upper state is unphysical, geof and
#: its witness where not asked for, not physical or not certified.
_ROWS = ("nu_minus", "nu_plus", "nu_t", "nu_t_plus",
         "lower_natural", "lower_sigma", "upper_natural", "eeof", "geof",
         "geof_s_a", "geof_s_b", "geof_r")
#: Indices of the first bound row and of the first witness row; the rows
#: before the bounds are the spectra.
_BOUNDS, _WITNESS = _ROWS.index("lower_natural"), _ROWS.index("geof_s_a")


def _symmetric(m, c1, c2, psd_tol: float, scale):
    """(PPT eigenvalue, physical) of the symmetric states (m, m, c1, c2), c1 >= |c2|."""
    with np.errstate(invalid="ignore"):
        nu_minus = np.sqrt((m - c1) * (m - c2))
        return np.sqrt((m - c1) * (m + c2)), _physical(m - c1, nu_minus, scale, psd_tol)


def _standard_bounds(a, b, c1, c2, psd_tol: float = PSD_TOL, scale=None,
                     include_geof: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(physical, entangled, table) of the standard forms (a, b, c1, c2), c1 >= |c2|.

    table[k] is the value `_ROWS[k]` of every form.  Each state takes the
    physicality test `states._physical`: the standard form with the scale
    of the input (max(a, b) if None), the symmetric states (m, m, c1, c2)
    with max(a, b).  The symmetric state has least eigenvalue m - c1,
    nu_minus sqrt((m - c1)(m - c2)) and PPT eigenvalue sqrt((m - c1)(m + c2));
    the standard form's spectra, and those of its partial transpose, come
    from `states._spectra`.  With include_geof, `_geof_forms` searches the
    physical states together, and its witness rows are kept.
    """
    a, b, c1, c2 = (np.asarray(x, dtype=float) for x in (a, b, c1, c2))
    top = np.maximum(a, b)
    scale = top if scale is None else scale
    table = np.full((len(_ROWS),) + a.shape, np.nan)
    # The rows (nu_minus, nu_t) and (nu_plus, nu_t_plus).
    table[0:4:2], table[1:4:2] = _spectra(a, b, c1, np.array((c2, -c2)))
    nu_minus, nu_t = table[0], table[2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        physical = _physical(_least_eigenvalue(a, b, c1), nu_minus, scale, psd_tol)
        # The symmetric states with m = max(a, b), (a + b)/2 and min(a, b), together.
        m = np.array((top, (a + b) / 2.0, np.minimum(a, b)))
        nu_sym, physical_sym = _symmetric(m, c1, c2, psd_tol, top)
    # The rows lower_natural, lower_sigma, upper_natural and eeof.
    table[4:8] = entanglement_entropy_vec(np.array((*nu_sym, nu_t)))
    table[6] = np.where(physical_sym[2], table[6], np.nan)
    if include_geof:  # the rows geof, geof_s_a, geof_s_b and geof_r
        value, witness, _ = _geof_forms(*(x[physical] for x in (a, b, c1, c2)), psd_tol)
        table[8, physical], table[9:, physical] = value, witness.T
    return physical, nu_t < 1.0 - psd_tol, table


#: The 64 nodes t = 1/64, ..., 1 of the searched bound's line.
_NODES = np.linspace(0.0, 1.0, 65)[1:]


def _searched(a, b, c1, c2, psd_tol: float) -> float:
    """The searched upper bound of one physical standard form (a, b, c1, c2).

    v - V' splits into an x sector [[a - m, k], [k, b - m]], k = (1 - t) c1,
    and a p sector with (1 - t) c2, |c2| <= c1; both are PSD iff
    m <= m(t), the smaller root of (a - m)(b - m) = k^2.  With
    d = |a - b| that root is min(a, b) - (hypot(d, 2k) - d)/2, exactly
    min(a, b) at t = 1.  While m > t c1, both the squared PPT eigenvalue
    (m - t c1)(m + t c2) and (m - t c1)(m - t c2) of the physicality test
    rise with m, so at each t the boundary point m(t) is the best one.
    Physicality implies m >= 1 within its allowance, so m is not tested
    against 1.  The least EoF over the feasible nodes `_NODES` is returned,
    or NaN if none is; t = 1 is the natural upper state.
    """
    t = _NODES
    d = abs(a - b)
    m = min(a, b) - (np.hypot(d, 2.0 * (1.0 - t) * c1) - d) / 2.0
    nu_t, feasible = _symmetric(m, t * c1, t * c2, psd_tol, max(a, b))
    if not np.any(feasible):
        return math.nan
    return float(np.min(entanglement_entropy_vec(nu_t[feasible])))


@dataclass(frozen=True)
class BoundReport:
    """Full bound hierarchy for one state (values in nats), with what it rests on.

    `upper_natural` is None where the natural upper state is unphysical,
    `upper_searched` where no node of its line is feasible, and `geof` where
    no witness is certified or none was asked for.  `geof_witness` is
    (s_a, s_b, r) of the certified pure witness G = Gx (+) Gx^-1 <= V, in
    the frame of `standard_form` (`geof._certified` rebuilds it), and None
    exactly where `geof` is.  `eeof` is the symmetric-state formula applied
    to the state, not proven equal to its EoF; `entangled` is the PPT test.
    `violations` names each broken order of the hierarchy (`_ORDER`) with
    both values, in nats, and its slack; it is empty where the hierarchy
    holds.  `invariants` are those of the state's matrix (of the standard
    form's for a StandardForm), and `symplectic_eigenvalues` and
    `ppt_symplectic_eigenvalues` are (nu_minus, nu_plus) of the standard
    form and of its partial transpose.
    """

    lower_natural: float
    lower_sigma: float
    upper_natural: float | None
    upper_searched: float | None
    eeof: float
    geof: float | None
    geof_witness: tuple[float, float, float] | None
    entangled: bool
    violations: tuple[str, ...]
    standard_form: StandardForm
    invariants: Invariants
    symplectic_eigenvalues: tuple[float, float]
    ppt_symplectic_eigenvalues: tuple[float, float]


def bound_report(
    v: CovMat | StandardForm,
    include_geof: bool = True,
    psd_tol: float = PSD_TOL,
) -> BoundReport:
    """Assemble every bound for a physical state and verify the hierarchy.

    The state is reduced to its standard form once: a StandardForm is its
    own, and a CovMat V, once one eigvalsh has tested it positive definite
    (-V has its invariants), has the form solved from the invariants the
    report carries.  One pass of `_standard_bounds` then checks it and gives
    its spectra, every closed-form value and the GeoF of the array search
    `geof._geof_forms`, as a scan does for a whole grid; `_searched` gives
    the searched one.  All run on that standard form, and the report
    carries it.  The bound values are the pass's rows; a NaN, a value not
    available, fails every order check, and the report gives it as None.
    Violations of the expected ordering are recorded in `violations` rather
    than raised, so callers can inspect borderline numerics.

    A certified `geof` is an upper bound on the EoF: its witness G <= V,
    `geof_witness`, gives E(G) >= GEoF(V) >= EoF(V).  It is also never above
    `upper_natural` or `upper_searched`: for a symmetric V' <= V,
    EoF(V') = GEoF(V') >= GEoF(V), since every pure G <= V' is below V.

    Raises
    ------
    DomainError
        If psd_tol is not finite and non-negative.
    NonPhysicalStateError
        If v is not physical within psd_tol.
    """
    if not 0.0 <= psd_tol < math.inf:  # a NaN or infinite tolerance would switch the test off
        raise DomainError(f"psd_tol must be finite and non-negative, got {psd_tol}")
    if isinstance(v, StandardForm):
        form, scale, inv = tuple(v), max(map(abs, v)), invariants(v.to_covmat())
    else:
        lam_min = np.linalg.eigvalsh(v.matrix)[0]
        if not lam_min > 0.0:
            _rejected(lam_min, math.nan, 0.0)
        inv = invariants(v)
        form, scale = _standard_forms(*inv)[0], np.max(np.abs(v.matrix))
    physical, entangled, rows = _standard_bounds(*form, psd_tol, scale, include_geof)
    if not physical:
        _rejected(_least_eigenvalue(*form[:3]), rows[_ROWS.index("nu_minus")], psd_tol)
    sf = StandardForm(*map(float, form))
    values = dict(zip(_ROWS[_BOUNDS:_WITNESS], rows[_BOUNDS:_WITNESS].tolist()))
    values["upper_searched"] = _searched(*sf, psd_tol)
    violations = tuple(f"{lo}<={hi}: {values[lo]:.12g} > {values[hi]:.12g} + {tol:g}"
                       for lo, hi, tol in _ORDER if values[lo] > values[hi] + tol)
    spectra, witness = rows[:_BOUNDS].tolist(), tuple(rows[_WITNESS:].tolist())
    return BoundReport(**{name: None if math.isnan(x) else x for name, x in values.items()},
                       geof_witness=None if math.isnan(witness[0]) else witness,
                       entangled=bool(entangled), violations=violations, standard_form=sf,
                       invariants=inv, symplectic_eigenvalues=tuple(spectra[:2]),
                       ppt_symplectic_eigenvalues=tuple(spectra[2:]))


#: The expected order of the report's values, as (lower, upper, slack).
_ORDER = (
    ("lower_natural", "lower_sigma", BOUND_TOL),
    ("lower_sigma", "upper_natural", BOUND_TOL),
    ("lower_sigma", "upper_searched", BOUND_TOL),
    ("lower_natural", "eeof", BOUND_TOL),
    ("eeof", "upper_natural", BOUND_TOL),
    ("eeof", "upper_searched", BOUND_TOL),
    ("lower_sigma", "geof", GEOF_TOL),
    ("geof", "upper_natural", GEOF_TOL),
    ("geof", "upper_searched", GEOF_TOL),
)
