"""Numerical Gaussian entanglement of formation from exact stationary points.

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

every point of which is feasible.  With theta = 2 phi, S = (Vx - P)^(1/2),
Z = diag(1, -1) and X = [[0, 1], [1, 0]],

    Gx = (Vx + P)/2 - (S Z S cos theta + S X S sin theta)/2,

and with t = tan(theta / 2), (1 + t^2) Gx has quadratic entries g11, g22
and g12 in t.  So rho^2 = g12^2 / (g11 g22) is stationary only where
g12 = 0 or where the quartic 2 g12' g11 g22 - g12 (g11 g22)' vanishes
(' is d/dt; the t^5 terms cancel).  This is the degree-6 polynomial
(1 + t^2)^3 Q of the degree-3 trigonometric polynomial
Q = 2 Gx12' Gx11 Gx22 - Gx12 (Gx11 Gx22)' (' is d/dtheta) less its factor
(1 + t^2)/2, whose roots +-i give no angle, so rho has at most two local
minima away from Gx12 = 0.  `_geof_forms` finds them for
arrays of standard forms, each step over all states at once (`geof` is
the case n = 1):

* a separable state's Gx12 changes sign at two angles known in closed
  form, where the product witness (r = 0) gives exactly 0.0; they are
  tried first;
* every other state evaluates rho at the angles theta = 2 arctan t of the
  real parts of the four roots of its quartic, the eigenvalues of one
  (n, 4, 4) companion matrix, and keeps the least.  Taking the real part
  of a complex pair costs an evaluation and loses no real root.

So at most 6 angles are evaluated per state: at most 2 for a separable
state certified at a zero angle, the zero-angle tries plus 4 for every
other.  A value is kept only if its witness G, rebuilt from
the returned parameters, passes V - G >= -allowance: for G = Gx (+) Gx^-1,
two 2x2 tests on Vx - Gx and Vp - Gx^-1 (`_certified`).
"""

from __future__ import annotations

import sys
import types
from dataclasses import dataclass

import numpy as np

from .entanglement import entanglement_entropy_vec
from .states import CovMat, StandardForm, _nonnegative, standard_form
from .symplectic import PSD_TOL


@dataclass(frozen=True)
class GeofResult:
    """Outcome of the Gaussian EoF minimization.

    `argmin_parameters` are (theta_a, s_a, theta_b, s_b, r) for the pure
    covariance matrix achieving `value`; they refer to the standard-form
    frame stored in `reference_matrix`, which the search ran against.
    The reduction always returns theta_a = theta_b = 0.  `iterations`
    counts the candidate angles at which rho was evaluated.
    """

    value: float
    argmin_parameters: np.ndarray
    feasible: bool
    iterations: int
    reference_matrix: np.ndarray | None = None


#: (1 + t^2) (f0 + f1 cos theta + f2 sin theta) = f @ _HALF, a quadratic in
#: t = tan(theta / 2) (ascending powers).
_HALF = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])


def _curve(a, b, c1, c2) -> np.ndarray:
    """Rows (f0, f1, f2) of Gx11, Gx22 and Gx12 on the curve, shape (3, n, 3)."""
    vx = np.array([[a, c1], [c1, b]]).transpose(2, 0, 1)
    p = np.array([[b, -c2], [-c2, a]]).transpose(2, 0, 1) / (a * b - c2 * c2)[:, None, None]
    w, q = np.linalg.eigh(vx - p)
    # Roundoff can leave Vx - P a hair indefinite for (near) pure states.
    s = (q * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ q.transpose(0, 2, 1)
    # Gx = (Vx + P)/2 - (S Z S cos theta + S X S sin theta)/2.
    f = np.stack([vx + p, -(s * [1.0, -1.0]) @ s, -s[:, :, ::-1] @ s]) / 2.0
    return f[..., (0, 1, 0), (0, 1, 1)].transpose(2, 1, 0)


def _at(rows, theta):
    """The entries f0 + f1 cos theta + f2 sin theta of rows (..., n, 3) at theta (n, k)."""
    return rows[..., :1] + rows[..., 1:2] * np.cos(theta) + rows[..., 2:] * np.sin(theta)


def _mul(p, q):
    """Products of the polynomials in the rows of p and q (ascending powers)."""
    out = np.zeros((p.shape[0], p.shape[1] + q.shape[1] - 1))
    for i in range(p.shape[1]):
        out[:, i:i + q.shape[1]] += p[:, i, None] * q
    return out


def _stationary(rows) -> np.ndarray:
    """Candidate angles theta (n, 4): the real parts of the roots of the quartic."""
    g11, g22, g12 = rows @ _HALF
    g = _mul(g11, g22)
    # 2 g12' g - g12 g', whose t^5 terms cancel.
    quartic = _mul(2.0 * g12[:, 1:] * [1.0, 2.0], g) - _mul(g12, g[:, 1:] * [1.0, 2.0, 3.0, 4.0])
    quartic = quartic[:, :5]
    # A vanishing leading coefficient is a root at theta = pi (t = inf); the
    # floor keeps that root finite and large, and a pure state's all-zero
    # quartic (rho constant on a one-point curve) finite.
    floor = np.finfo(float).eps * np.abs(quartic).max(axis=1) + np.finfo(float).tiny
    quartic[:, 4] = np.where(np.abs(quartic[:, 4]) > floor, quartic[:, 4], floor)
    companion = np.zeros((quartic.shape[0], 4, 4))
    companion[:, np.arange(1, 4), np.arange(3)] = 1.0
    companion[:, :, 3] = -quartic[:, :4] / quartic[:, 4:]
    return 2.0 * np.arctan(np.linalg.eigvals(companion).real)


def _parameters(g11, g22, g12) -> np.ndarray:
    """(0, s_a, 0, s_b, r) rows of the pure matrices Gx (+) Gx^-1."""
    r = 0.5 * np.arcsinh(g12 / np.sqrt(g11 * g22 - g12 * g12))
    ch = np.cosh(2 * r)
    p = np.zeros((r.size, 5))
    p[:, 1], p[:, 3], p[:, 4] = 0.5 * np.log(g11 / ch), 0.5 * np.log(g22 / ch), r
    return p


def _least_eigenvalue(d11, d22, d12):
    """Smaller eigenvalue of the symmetric 2x2 matrices [[d11, d12], [d12, d22]]."""
    return (d11 + d22 - np.hypot(d11 - d22, 2.0 * d12)) / 2.0


def _certified(a, b, c1, c2, params, psd_tol: float) -> np.ndarray:
    """Whether the witnesses G = Gx (+) Gx^-1 of the parameter rows are below V.

    Gx = e^S [[ch, sh], [sh, ch]] e^S with S = diag(s_a, s_b) is rebuilt
    from the parameters, and both Vx - Gx and Vp - Gx^-1 must have least
    eigenvalue >= -(psd_tol + 16 eps max(a, b)^3).  An optimal witness
    touches V, so roundoff decides the sign of these tests.  Converting Gx
    to (s_a, s_b, r) takes sqrt(det Gx), and det Gx = Gx11 Gx22 - Gx12^2
    loses about eps max(a, b)^2 to cancellation.  For det Gx of order 1, as
    for a pure state, that moves 2r by about as much, and so cosh 2r and
    the rebuilt entries, of size max(a, b), by about eps max(a, b)^3.  The
    tests came out no lower than -9 eps max(a, b)^3 on 40000 TMSV states
    (r up to 3, half in random local frames) and -2 on the README grids and
    on random forms with a, b up to 50.  16 eps max(a, b)^3 is allowed, as
    `least_mu_minus` allows 16 eps scale^2 for its own roundoff.  Rows with
    non-finite parameters fail.
    """
    allowance = psd_tol + 16.0 * np.finfo(float).eps * np.maximum(a, b) ** 3
    ch, sh = np.cosh(2 * params[:, 4]), np.sinh(2 * params[:, 4])
    ea, eb = np.exp(2 * params[:, 1]), np.exp(2 * params[:, 3])
    x = _least_eigenvalue(a - ch * ea, b - ch * eb, c1 - sh * np.sqrt(ea * eb))
    p = _least_eigenvalue(a - ch / ea, b - ch / eb, c2 + sh / np.sqrt(ea * eb))
    return np.minimum(x, p) >= -allowance


def _geof_forms(a, b, c1, c2, psd_tol: float = PSD_TOL):
    """Gaussian EoF of physical standard forms (a, b, c1, c2), searched together.

    Takes numpy arrays of n standard forms and returns, per state, the value
    (inf where the witness failed the certificate), the witness parameters
    (n, 5), feasible and the angles evaluated.  `psd_tol` means what it
    means in `geof`, for each state.
    """
    a, b, c1, c2 = np.array((a, b, c1, c2), dtype=float).reshape(4, -1)
    n = a.size
    rows = _curve(a, b, c1, c2)
    params, feasible = np.zeros((n, 5)), np.zeros(n, dtype=bool)
    evals = np.zeros(n, dtype=np.int64)

    def certify(k, g11, g22, g12):
        """Keep the witnesses at Gx = (g11, g22, g12) of states k that pass."""
        with np.errstate(invalid="ignore", divide="ignore"):
            p = _parameters(g11, g22, g12)
            passed = _certified(a[k], b[k], c1[k], c2[k], p, psd_tol)
        params[k[passed]], feasible[k[passed]] = p[passed], True

    # Separable states: Gx12 = f0 + f1 cos theta + f2 sin theta changes
    # sign, and the product witness at a zero gives exactly 0.0.
    f0, f1, f2 = rows[2].T
    amp = np.hypot(f1, f2)
    crossing = np.abs(f0) <= amp
    for sign in (-1.0, 1.0):
        k = np.flatnonzero(crossing & ~feasible)
        if not k.size:
            break
        evals[k] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            half = np.where(amp[k] > 0.0, np.arccos(-f0[k] / amp[k]), 0.0)
        g11, g22 = _at(rows[:2, k], (np.arctan2(f2[k], f1[k]) + sign * half)[:, None])[..., 0]
        certify(k, g11, g22, np.zeros(k.size))

    # Every other state: the least rho of its stationary angles.
    k = np.flatnonzero(~feasible)
    if k.size:
        evals[k] += 4
        g11, g22, g12 = _at(rows[:, k], _stationary(rows[:, k]))
        best = (np.arange(k.size), np.argmin(np.abs(g12) / np.sqrt(g11 * g22), axis=1))
        certify(k, g11[best], g22[best], g12[best])
    value = np.where(feasible, entanglement_entropy_vec(np.exp(-2.0 * np.abs(params[:, 4]))), np.inf)
    return value, params, feasible, evals


def geof(v: CovMat | StandardForm, psd_tol: float = PSD_TOL) -> GeofResult:
    """Minimize pure-state entanglement over pure covariance matrices <= v.

    Checks v and reduces it to its standard form once, by the lean check
    `states.standard_form`, then runs `_geof_forms` on it at n = 1;
    `bound_report` and `scan` run `_geof_forms` inside their closed-form
    pass (`bounds._standard_bounds`).  Deterministic.

    At most 6 angles are evaluated.  A separable state returns exactly 0.0
    from a product witness.  The returned value is that of a witness G
    that passes the certificate V - G >= -(psd_tol + 16 eps max(a, b)^3);
    when it fails, the result is infeasible with value inf.

    Raises
    ------
    DomainError
        If psd_tol is not finite and non-negative.
    NonPhysicalStateError
        If v is not physical within psd_tol.
    """
    _nonnegative(psd_tol=psd_tol)
    sf = standard_form(v, psd_tol)
    value, params, feasible, evals = _geof_forms(*sf, psd_tol)
    return GeofResult(float(value[0]), params[0], bool(feasible[0]), int(evals[0]),
                      sf.to_covmat().matrix)


class _CallableModule(types.ModuleType):
    """This module, callable as `geof` for `eofbounds.geof(v)` callers (bench/selftest.py)."""

    def __call__(self, *args, **kwargs):
        return geof(*args, **kwargs)


sys.modules[__name__].__class__ = _CallableModule
