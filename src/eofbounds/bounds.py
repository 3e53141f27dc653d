"""Entanglement-of-formation bounds from classical-noise decompositions.

Adding classical Gaussian noise (a PSD matrix on the covariance level)
can only lower the entanglement of formation.  Writing V = V0 + Delta
with Delta >= 0 therefore orders EoF(V) <= EoF(V0), and symmetric states
built from the reduced blocks of V give computable bounds:

* lower bound from the symmetric state of the larger block,
* a tighter lower bound from the midpoint block (A + B)/2,
* upper bound from the symmetric state of the smaller block, when that
  state is physical,
* a searched upper bound over symmetric states with rescaled
  correlations, covering the case where the natural upper state is
  unphysical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    eeof,
    entanglement_entropy,
    entanglement_entropy_vec,
    eof_symmetric,
)
from .errors import NotPSDError
from .geof import geof
from .states import (
    CovMat,
    is_entangled,
    is_physical,
    reduced_symmetric,
    require_physical,
    standard_form,
)
from .symplectic import PSD_TOL, loewner_ge, min_eigenvalue, symmetrize

#: Default tolerance for comparisons between entanglement values.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class NoiseMatrix:
    """PSD covariance-level noise Delta with V = V_target + Delta."""

    delta: np.ndarray


def noise_decomposition(v: CovMat, target: CovMat, tol: float = PSD_TOL) -> NoiseMatrix:
    """Noise matrix Delta = v - target, validated to be PSD.

    A valid decomposition certifies EoF(v-state) <= EoF(target-state).

    Raises
    ------
    NotPSDError
        If v - target has an eigenvalue below -tol.
    """
    delta = symmetrize(v.matrix - target.matrix)
    lam = min_eigenvalue(delta)
    if lam < -tol:
        raise NotPSDError(
            f"difference is not PSD (min eigenvalue {lam:.3e}); no bound follows"
        )
    delta.setflags(write=False)
    return NoiseMatrix(delta)


def _construction_frame(v: CovMat, psd_tol: float) -> tuple[CovMat, str, str, str]:
    """Choose the frame and side ordering for bound constructions.

    Returns (base state, larger side, smaller side, orientation).  Raw
    blocks are used when they are Loewner comparable; otherwise the state
    is reduced to standard form, where the scalar blocks always compare.
    """
    a, b = v.block_a, v.block_b
    if loewner_ge(b, a, psd_tol):
        return v, "b", "a", "raw"
    if loewner_ge(a, b, psd_tol):
        return v, "a", "b", "raw"
    sf = standard_form(v)
    base = sf.to_covmat()
    if sf.b >= sf.a:
        return base, "b", "a", "standard_form"
    return base, "a", "b", "standard_form"


@dataclass(frozen=True)
class NaturalBounds:
    """Bounds from the two reduced-block symmetric states."""

    lower: float
    upper: float | None
    orientation: str
    big_side: str
    upper_physical: bool


def natural_bounds(v: CovMat, psd_tol: float = PSD_TOL) -> NaturalBounds:
    """EoF bounds from the symmetric states of the two reduced blocks.

    The larger block gives a lower bound (its symmetric state is always
    physical); the smaller block gives an upper bound unless the
    resulting state is unphysical, in which case `upper` is None.
    """
    require_physical(v, psd_tol)
    base, big, small, orientation = _construction_frame(v, psd_tol)
    lower = eof_symmetric(reduced_symmetric(base, big), psd_tol=psd_tol)
    upper_state = reduced_symmetric(base, small)
    if is_physical(upper_state, psd_tol):
        upper = eof_symmetric(upper_state, psd_tol=psd_tol)
        return NaturalBounds(lower, upper, orientation, big, True)
    return NaturalBounds(lower, None, orientation, big, False)


def sigma_lower_bound(v: CovMat, psd_tol: float = PSD_TOL) -> float:
    """Lower bound from the midpoint symmetric state.

    Works on the standard form (a, b, c1, c2) of v, whatever frame v is
    given in.  The midpoint state (m, m, c1, c2) with m = (a + b)/2 is the
    average of the standard form and its mode swap, so it is physical,
    and its PPT eigenvalue is sqrt((m - c1)(m + c2)).  Always at least as
    tight as the larger-block bound, and never above the true EoF.
    """
    require_physical(v, psd_tol)
    sf = standard_form(v)
    m = (sf.a + sf.b) / 2.0
    return entanglement_entropy(math.sqrt((m - sf.c1) * (m + sf.c2)))


def searched_upper_bound(
    v: CovMat, steps: int = 64, psd_tol: float = PSD_TOL
) -> float | None:
    """Tightest upper bound over symmetric states with rescaled correlations.

    Minimizes the symmetric-state EoF over the family V' with blocks m*I
    and correlations t*diag(c1, c2), for m in [1, min(a, b)] and
    t in (0, 1], subject to v - V' being PSD and V' physical.  Works on
    the standard form of v.  Returns None when no grid point is feasible.

    The grid uses `steps` subdivisions per axis with shared endpoints, so
    doubling `steps` refines the previous grid and the returned value
    never increases.
    """
    require_physical(v, psd_tol)
    sf = standard_form(v)
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2

    m_hi = min(a, b)
    m = np.linspace(1.0, m_hi, steps + 1)
    t = np.linspace(0.0, 1.0, steps + 1)[1:]
    mg, tg = np.meshgrid(m, t, indexing="ij")
    mg, tg = mg.ravel(), tg.ravel()

    # Feasibility of v - V' in closed form: the difference splits into an
    # x-sector [[a-m, (1-t)c1], [., b-m]] and a p-sector with c2; both are
    # PSD iff the diagonals and the binding determinant are nonnegative.
    da, db = a - mg, b - mg
    off = np.maximum((1.0 - tg) * np.abs(c1), (1.0 - tg) * np.abs(c2))
    psd_ok = (da >= -psd_tol) & (db >= -psd_tol) & (da * db - off**2 >= -psd_tol)

    # Physicality of V': positive definiteness (m > t*c1) and nu_minus >= 1.
    tc1, tc2 = tg * c1, tg * c2
    pd_ok = mg - np.maximum(np.abs(tc1), np.abs(tc2)) > psd_tol
    nu_minus_sq = (mg - tc1) * (mg - tc2)
    phys_ok = pd_ok & (nu_minus_sq >= (1.0 - psd_tol) ** 2)

    feasible = psd_ok & phys_ok
    if not np.any(feasible):
        return None
    nu_t = np.sqrt(np.maximum((mg - tc1) * (mg + tc2), 0.0)[feasible])
    return float(np.min(entanglement_entropy_vec(nu_t)))


def difference_upper_bound(v: CovMat, psd_tol: float = PSD_TOL) -> float | None:
    """Diagnostic upper bound from the block difference M = B - A.

    Available only when B - A <= A in the Loewner order and the symmetric
    state built from B - A (same correlations) is physical; returns None
    otherwise.
    """
    require_physical(v, psd_tol)
    a, b = v.block_a, v.block_b
    m_blk = b - a
    if not loewner_ge(a, m_blk, psd_tol):
        return None
    state = CovMat.from_blocks(m_blk, m_blk, v.block_c)
    if not is_physical(state, psd_tol):
        return None
    return eof_symmetric(state, psd_tol=psd_tol)


@dataclass(frozen=True)
class BoundFlags:
    """Diagnostics for the constructed bound states."""

    orientation: str
    big_side: str
    upper_natural_physical: bool
    searched_feasible: bool | None
    geof_feasible: bool | None
    geof_budget_exhausted: bool
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


def bound_report(
    v: CovMat,
    include_geof: bool = True,
    include_searched: bool = True,
    psd_tol: float = PSD_TOL,
    bound_tol: float = BOUND_TOL,
    geof_tol: float = 1e-6,
    geof_budget: int = 100_000,
    searched_steps: int = 64,
) -> BoundReport:
    """Assemble every bound for a physical state and verify the hierarchy.

    Violations of the expected ordering are recorded in the flags rather
    than raised, so callers can inspect borderline numerics.
    """
    require_physical(v, psd_tol)
    entangled = is_entangled(v, psd_tol)

    nb = natural_bounds(v, psd_tol)
    sigma = sigma_lower_bound(v, psd_tol)
    estimate = eeof(v, psd_tol)

    geof_value: float | None = None
    geof_feasible: bool | None = None
    exhausted = False
    if include_geof:
        result = geof(v, tol=geof_tol, budget=geof_budget, psd_tol=psd_tol)
        geof_feasible = result.feasible
        exhausted = result.budget_exhausted
        geof_value = result.value if result.feasible else None

    searched: float | None = None
    searched_feasible: bool | None = None
    if include_searched:
        searched = searched_upper_bound(v, steps=searched_steps, psd_tol=psd_tol)
        searched_feasible = searched is not None

    violations: list[str] = []

    def check(name: str, lo: float | None, hi: float | None, tol: float) -> None:
        if lo is not None and hi is not None and lo > hi + tol:
            violations.append(f"{name}: {lo:.12g} > {hi:.12g} + {tol:g}")

    check("lower_natural<=lower_sigma", nb.lower, sigma, bound_tol)
    check("lower_sigma<=upper_natural", sigma, nb.upper, bound_tol)
    check("lower_sigma<=upper_searched", sigma, searched, bound_tol)
    check("lower_natural<=eeof", nb.lower, estimate, bound_tol)
    check("eeof<=upper_natural", estimate, nb.upper, bound_tol)
    check("eeof<=upper_searched", estimate, searched, bound_tol)
    check("lower_sigma<=geof", sigma, geof_value, geof_tol)
    check("geof<=upper_natural", geof_value, nb.upper, geof_tol)
    check("geof<=upper_searched", geof_value, searched, geof_tol)

    flags = BoundFlags(
        orientation=nb.orientation,
        big_side=nb.big_side,
        upper_natural_physical=nb.upper_physical,
        searched_feasible=searched_feasible,
        geof_feasible=geof_feasible,
        geof_budget_exhausted=exhausted,
        hierarchy_ok=not violations,
        violations=tuple(violations),
    )
    return BoundReport(
        lower_natural=nb.lower,
        lower_sigma=sigma,
        upper_natural=nb.upper,
        upper_searched=searched,
        eeof=estimate,
        geof=geof_value,
        entangled=entangled,
        flags=flags,
    )
