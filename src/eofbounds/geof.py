"""Numerical Gaussian entanglement of formation by a one-angle reduction.

The Gaussian EoF of a two-mode state with covariance matrix V is the
minimum entanglement over pure Gaussian covariance matrices dominated by
V in the Loewner order:

    geof(V) = min { E(G) : G pure, G <= V }.

The quantity is invariant under local symplectics, so the search runs on
the standard form (a, b, c1, c2), where V splits into an x sector
Vx = [[a, c1], [c1, b]] and a p sector Vp = [[a, c2], [c2, b]].  The
witness is taken block-diagonal in the same way, G = Gx (+) Gx^-1 (Marian
& Marian, PRL 101, 220403, 2008; Tserkis & Ralph, PRA 96, 062338, 2017),
so G <= V reads P <= Gx <= Vx with P = Vp^-1, and E(G) depends on Gx only
through rho = |Gx12| / sqrt(Gx11 Gx22) = tanh 2|r|.

At a minimum with rho > 0 both constraints are tangent: Vx - Gx = u u^T
and Gx - P = w w^T, hence Vx - P = u u^T + w w^T.  Every such split is
[u w] = (Vx - P)^(1/2) R(phi), so the minimisers lie on the closed curve

    Gx(phi) = Vx - u(phi) u(phi)^T,   u(phi) = (Vx - P)^(1/2) (cos phi, sin phi),

every point of which is feasible.  `_geof_forms` searches it for arrays of
standard forms, each step over all states at once (`geof` is the case
n = 1): rho on a coarse grid of phi, then a few rounds that refine every
coarse local minimum.  A separable state's Gx12(phi) changes sign at
angles known in closed form, where the product witness (r = 0) gives
exactly 0.0.  A value is kept only if eigvalsh(V - G) >= -psd_tol for its
witness G rebuilt from the returned parameters.
"""

from __future__ import annotations

import math
import sys
import types
from dataclasses import dataclass

import numpy as np

from .entanglement import entanglement_entropy_vec
from .errors import DomainError
from .states import CovMat, require_physical, standard_form
from .symplectic import PSD_TOL

#: Coarse angles over [0, pi).  rho^2 is a ratio of trigonometric polynomials
#: whose stationary points are the zeros of one of degree 3 in 2 phi, so it has
#: at most three local minima.  With 32 angles the refined minimum matched a
#: 200001-angle grid within 1e-14 on 1600 entangled forms with a, b up to 50.
_COARSE = 32

#: At most this many coarse local minima are refined (see _COARSE).
_MAX_BASINS = 3

#: Narrowest bracket refined: within about 1e-8 of its minimum rho is
#: flat to double precision, so narrower brackets only spend evaluations.
_MIN_WIDTH = 1e-9

#: Steps toward the interior for a witness failing the certificate on roundoff.
_RETREATS = (0.0, 1e-12, 1e-9)


@dataclass(frozen=True)
class GeofResult:
    """Outcome of the Gaussian EoF minimization.

    `argmin_parameters` are (theta_a, s_a, theta_b, s_b, r) for the pure
    covariance matrix achieving `value`; they refer to the standard-form
    frame stored in `reference_matrix`, which the search ran against.
    The reduction always returns theta_a = theta_b = 0.  `iterations`
    counts evaluations of the objective.
    """

    value: float
    argmin_parameters: np.ndarray
    feasible: bool
    iterations: int
    budget_exhausted: bool = False
    reference_matrix: np.ndarray | None = None


def pure_cms_from_parameters(params: np.ndarray) -> np.ndarray:
    """Build pure covariance matrices from parameter rows.

    Accepts shape (5,) or (N, 5); returns (4, 4) or (N, 4, 4).  Every
    output is exactly pure (both symplectic eigenvalues 1) because it is
    S S^T for a symplectic S.
    """
    p = np.atleast_2d(np.asarray(params, dtype=float))
    ta, sa, tb, sb, r = p[:, 0], p[:, 1], p[:, 2], p[:, 3], p[:, 4]
    n = p.shape[0]

    ch = np.cosh(2 * r)
    sh = np.sinh(2 * r)
    core = np.zeros((n, 4, 4))
    core[:, 0, 0] = core[:, 1, 1] = core[:, 2, 2] = core[:, 3, 3] = ch
    core[:, 0, 2] = core[:, 2, 0] = sh
    core[:, 1, 3] = core[:, 3, 1] = -sh

    loc = np.zeros((n, 4, 4))
    for (ti, si, off) in ((ta, sa, 0), (tb, sb, 2)):
        c, s = np.cos(ti), np.sin(ti)
        ep, em = np.exp(si), np.exp(-si)
        loc[:, off, off] = c * ep
        loc[:, off, off + 1] = s * em
        loc[:, off + 1, off] = -s * ep
        loc[:, off + 1, off + 1] = c * em

    out = loc @ core @ loc.transpose(0, 2, 1)
    return out[0] if np.ndim(params) == 1 else out


#: States searched together; the refinement's arrays do not grow beyond them.
_BLOCK = 256

#: Angles per bracket in one refinement round, evenly spaced inside it.  The
#: next bracket is the two spacings around the best, 32.5 times narrower:
#: four rounds take the coarse bracket 2 pi / _COARSE below 1e-6.
_ROUND_POINTS = 64


def _parameters(g11, g22, g12) -> np.ndarray:
    """(0, s_a, 0, s_b, r) rows of the pure matrices Gx (+) Gx^-1."""
    r = 0.5 * np.arcsinh(g12 / np.sqrt(g11 * g22 - g12 * g12))
    ch = np.cosh(2 * r)
    p = np.zeros((r.size, 5))
    p[:, 1], p[:, 3], p[:, 4] = 0.5 * np.log(g11 / ch), 0.5 * np.log(g22 / ch), r
    return p


def _geof_forms(a, b, c1, c2, tol: float = 1e-6, budget: int = 100_000, psd_tol: float = PSD_TOL):
    """Gaussian EoF of physical standard forms (a, b, c1, c2), searched together.

    Takes numpy arrays of n standard forms and returns, per state, the value
    (inf where no witness passed the certificate), the witness parameters
    (n, 5), feasible, the evaluations of rho and budget_exhausted.  `tol`,
    `budget` and `psd_tol` mean what they mean in `geof`, for each state.

    Raises
    ------
    DomainError
        If budget < 1.
    """
    if budget < 1:
        raise DomainError(f"geof budget must be at least 1, got {budget}")
    forms = np.array((a, b, c1, c2), dtype=float).reshape(4, -1)
    blocks = [_search(forms[:, i:i + _BLOCK], tol, budget, psd_tol)
              for i in range(0, max(forms.shape[1], 1), _BLOCK)]
    params, feasible, evals, exhausted = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    value = np.where(feasible, entanglement_entropy_vec(np.exp(-2.0 * np.abs(params[:, 4]))), np.inf)
    return value, params, feasible, evals, exhausted


def _witness(curve, phi):
    """(Gx11, Gx22, Gx12) at the angles phi on the curves (a, b, c1, s11, s12, s22)."""
    a, b, c1, s11, s12, s22 = curve
    c, s = np.cos(phi), np.sin(phi)
    u1 = s11 * c + s12 * s
    u2 = s12 * c + s22 * s
    return a - u1 * u1, b - u2 * u2, c1 - u1 * u2


def _rho(curve, phi):
    g11, g22, g12 = _witness(curve, phi)
    return np.abs(g12) / np.sqrt(g11 * g22)


def _search(forms: np.ndarray, tol: float, budget: int, psd_tol: float):
    """Witnesses of one block of standard forms, the columns of `forms`."""
    a, b, c1, c2 = forms
    n = a.size
    det_p = a * b - c2 * c2
    d = np.empty((n, 2, 2))
    d[:, 0, 0], d[:, 1, 1] = a - b / det_p, b - a / det_p
    d[:, 0, 1] = d[:, 1, 0] = c1 + c2 / det_p
    w, q = np.linalg.eigh(d)
    # Roundoff can leave Vx - P a hair indefinite for (near) pure states.
    root = (q * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ q.transpose(0, 2, 1)
    curve = np.concatenate((forms[:3], root[:, (0, 0, 1), (0, 1, 1)].T))
    s11, s12, s22 = curve[3:]
    v = np.zeros((n, 16))
    v[:, [0, 5, 10, 15, 2, 8, 7, 13]] = forms[[0, 0, 1, 1, 2, 2, 3, 3]].T
    # (Vx + P)/2, strictly inside P <= Gx <= Vx when Vx - P is definite.
    centre = ((a + b / det_p) / 2.0, (b + a / det_p) / 2.0, (c1 - c2 / det_p) / 2.0)
    params, feasible = np.zeros((n, 5)), np.zeros(n, dtype=bool)
    evals, exhausted = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)

    def certify(k, g):
        """Keep the witnesses at Gx = g of states k passing the certificate."""
        with np.errstate(invalid="ignore", divide="ignore"):
            for eps in _RETREATS:
                todo = np.flatnonzero(~feasible[k])
                if not todo.size:
                    break
                p = _parameters(*(x[todo] + eps * (c[k[todo]] - x[todo]) for x, c in zip(g, centre)))
                finite = np.isfinite(p).all(axis=1)
                gamma = pure_cms_from_parameters(np.where(finite[:, None], p, 0.0))
                lam = np.linalg.eigvalsh(v[k[todo]].reshape(-1, 4, 4) - gamma)[:, 0]
                passed = finite & (lam >= -psd_tol)
                params[k[todo[passed]]], feasible[k[todo[passed]]] = p[passed], True

    # Separable states: Gx12 = c1 - u1 u2 = c1 - m0 - m1 cos 2phi - m2 sin 2phi
    # changes sign, and the product witness at a zero gives exactly 0.0.
    m0, m1 = s12 * (s11 + s22) / 2.0, s12 * (s11 - s22) / 2.0
    m2 = (s11 * s22 + s12 * s12) / 2.0
    amp = np.hypot(m1, m2)
    crossing = np.abs(c1 - m0) <= amp
    if crossing.any():
        with np.errstate(invalid="ignore", divide="ignore"):
            half = np.where(amp > 0.0, np.arccos((c1 - m0) / amp), 0.0)
        for sign in (1.0, -1.0):
            k = np.flatnonzero(crossing & ~feasible & (evals < budget))
            evals[k] += 1
            phi = ((np.arctan2(m2[k], m1[k]) + sign * half[k]) / 2.0) % math.pi
            certify(k, _witness(curve[:, k], phi)[:2] + (np.zeros(k.size),))

    # Coarse pass over _COARSE angles, or over what the budget leaves of it
    # after uncertified zero angles.
    k = np.flatnonzero(~feasible)
    count = np.minimum(_COARSE, budget - evals[k])
    exhausted[k] = count < _COARSE
    k, count = k[count >= 1], count[count >= 1]
    if not k.size:
        return params, feasible, evals, exhausted
    m, rows = k.size, np.arange(k.size)
    curve = curve[:, k, None]
    grid = np.arange(_COARSE) * (math.pi / count)[:, None]
    r = _rho(curve, grid)
    r[np.arange(_COARSE) >= count[:, None]] = np.inf
    first = np.argmin(r, axis=1)
    found_rho, found_phi = [r[rows, first]], [grid[rows, first]]

    # Refine the best _MAX_BASINS coarse local minima of each state, or its
    # coarse minimum when rho has no strict local minimum, with as many
    # brackets per state as the state with the most.
    basin = (r < np.roll(r, 1, axis=1)) & (r <= np.roll(r, -1, axis=1))
    order = np.argsort(np.where(basin, r, np.inf), axis=1, kind="stable")[:, :_MAX_BASINS]
    live = basin[rows[:, None], order]
    order[:, 0], live[:, 0] = np.where(live[:, 0], order[:, 0], first), True
    need = live.sum(axis=1) * _ROUND_POINTS
    slots = np.arange(need.max()).reshape(-1, _ROUND_POINTS)
    step = math.pi / _COARSE
    lo = order[:, :len(slots)] * step - step
    width, rounds = 2.0 * step, 0
    while width * (2.0 / (_ROUND_POINTS + 1)) ** rounds > max(tol, _MIN_WIDTH):
        rounds += 1
    # Each round, a state evaluates its brackets in order up to its budget;
    # one whose coarse pass was cut short has none left.
    allowed = np.minimum(np.maximum(budget - count - need * np.arange(rounds)[:, None], 0), need)
    evals[k] += count + allowed.sum(axis=0)
    exhausted[k] |= (allowed < need).any(axis=0)
    for i in range(int(np.count_nonzero(allowed.any(axis=1)))):
        h = width / (_ROUND_POINTS + 1)
        phi = lo[:, :, None] + h * np.arange(1, _ROUND_POINTS + 1)
        r = _rho(curve, phi.reshape(m, -1)).reshape(phi.shape)
        r[slots >= allowed[i, :, None, None]] = np.inf
        lo, width = lo + h * np.argmin(r, axis=2), 2.0 * h
        r, phi = r.reshape(m, -1), phi.reshape(m, -1)
        at = np.argmin(r, axis=1)
        found_rho.append(r[rows, at])
        found_phi.append(phi[rows, at])
    g = _witness(curve, np.asarray(found_phi)[np.argmin(found_rho, axis=0), rows][:, None])
    certify(k, [x[:, 0] for x in g])
    return params, feasible, evals, exhausted


def geof(
    v: CovMat,
    tol: float = 1e-6,
    budget: int = 100_000,
    psd_tol: float = PSD_TOL,
) -> GeofResult:
    """Minimize pure-state entanglement over pure covariance matrices <= v.

    Checks v, reduces it to its standard form and runs `_geof_forms` on
    it at n = 1; `bound_report` and `scan`, which hold standard forms
    already, call `_geof_forms` directly.  Deterministic.

    `tol` is the width, in radians of phi, below which a bracket counts
    as converged (at least 1e-9); the value error is of order tol^2.
    `budget` is a hard cap on evaluations of rho.  A separable state
    returns exactly 0.0 from a product witness.  The returned value is
    that of a witness G with eigvalsh(V - G) >= -psd_tol; when no
    evaluated witness passes, the result is infeasible with value inf.

    Raises
    ------
    NonPhysicalStateError
        If v is not physical within psd_tol.
    DomainError
        If budget < 1.
    """
    require_physical(v, psd_tol)
    sf = standard_form(v)
    value, params, feasible, evals, exhausted = _geof_forms(*sf, tol, budget, psd_tol)
    return GeofResult(float(value[0]), params[0], bool(feasible[0]), int(evals[0]),
                      bool(exhausted[0]), sf.to_covmat().matrix)


class _CallableModule(types.ModuleType):
    """This module, callable as `geof` for `eofbounds.geof(v)` callers (bench/selftest.py)."""

    def __call__(self, *args, **kwargs):
        return geof(*args, **kwargs)


sys.modules[__name__].__class__ = _CallableModule
