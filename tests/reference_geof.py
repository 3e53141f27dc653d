"""Reference GeoF searches, kept as test-time cross-checks of the package oracle.

`reference_geof` is the 5-parameter search that `eofbounds.geof` used
before the one-angle reduction: a coarse grid plus analytic tangency
seeds, penalised Nelder-Mead refinement in the axis-aligned subfamily and
a full-family polish.  The reported minimum is the best strictly feasible
evaluation seen anywhere, so it is an upper bound on the Gaussian EoF;
the package oracle must never be above it by more than the tolerance of
the comparison.

`scalar_geof` is the one-angle reduction searched one state at a time:
the 32-angle coarse pass, then golden-section steps on each coarse basin.
The array search `eofbounds.geof._geof_forms` takes the exact stationary
points of the same reduction instead, so the two must agree to within the
golden-section bracket's error.

`pure_cms_from_parameters` builds the 5-parameter pure family that
`reference_geof` searches.  Both searches return a `SearchResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from eofbounds.bounds import bound_report
from eofbounds.entanglement import entanglement_entropy, entanglement_entropy_vec
from eofbounds.errors import DomainError
from eofbounds.states import CovMat
from eofbounds.symplectic import PSD_TOL

from conftest import is_physical, partial_transpose, symplectic_spectrum


@dataclass(frozen=True)
class SearchResult:
    """A reference search's least value, inf where no evaluated witness was
    feasible, its witness (theta_a, s_a, theta_b, s_b, r) in the standard
    form's frame, and the witnesses evaluated."""

    value: float
    argmin_parameters: np.ndarray
    feasible: bool
    iterations: int


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


#: Weight of the feasibility violation in the refinement merit function.
_PENALTY = 100.0

#: Hard box for the optimizer; keeps exp/cosh finite on wild simplex steps.
_PARAM_CAP = 30.0


class _Search:
    """Tracks the best strictly feasible evaluation across the search.

    The aligned fast path exploits that for a standard-form target the
    constraint matrix V - G of an angle-free candidate splits into two
    2x2 quadrature sectors, and that the candidate's PPT eigenvalue is
    exp(-2|r|) regardless of the local squeezings.
    """

    def __init__(self, sf, psd_tol: float, budget: int):
        self.a, self.b, self.c1, self.c2 = sf.a, sf.b, sf.c1, sf.c2
        self.v = sf.to_covmat().matrix
        self.psd_tol = psd_tol
        self.budget = budget
        self.evals = 0
        self.best_value = math.inf
        self.best_params: np.ndarray | None = None

    def to_covmat(self) -> CovMat:
        return CovMat(self.v)

    def inflate(self, delta: float) -> None:
        self.a += delta
        self.b += delta
        self.v = CovMat.from_standard_form(self.a, self.b, self.c1, self.c2).matrix

    def _track(self, value: float, lam: float, params5: np.ndarray) -> None:
        if lam >= -self.psd_tol and value < self.best_value:
            self.best_value = float(value)
            self.best_params = np.array(params5, dtype=float)

    # ----- axis-aligned fast path (theta_a = theta_b = 0) -----

    def aligned_eval_batch(self, p3: np.ndarray) -> np.ndarray:
        """Merit for (s_a, s_b, r) rows using 2x2 sector closed forms."""
        sa, sb, r = p3[:, 0], p3[:, 1], p3[:, 2]
        self.evals += p3.shape[0]
        qa, qb = np.exp(2 * sa), np.exp(2 * sb)
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        g = np.sqrt(qa * qb)

        def min_eig2(d1, d2, off):
            return ((d1 + d2) - np.sqrt((d1 - d2) ** 2 + 4 * off**2)) / 2.0

        lam_x = min_eig2(self.a - ch * qa, self.b - ch * qb, self.c1 - sh * g)
        lam_p = min_eig2(self.a - ch / qa, self.b - ch / qb, self.c2 + sh / g)
        lam = np.minimum(lam_x, lam_p)
        values = entanglement_entropy_vec(np.exp(-2 * np.abs(r)))

        feas = lam >= -self.psd_tol
        if np.any(feas):
            idx = np.where(feas)[0]
            k = idx[np.argmin(values[idx])]
            if values[k] < self.best_value:
                self.best_value = float(values[k])
                sak, sbk, rk = p3[k]
                self.best_params = np.array([0.0, sak, 0.0, sbk, rk])
        return values + _PENALTY * np.maximum(0.0, -lam)

    def _aligned_lam(self, sa: float, sb: float, r: float) -> float:
        qa, qb = math.exp(2 * sa), math.exp(2 * sb)
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        g = math.sqrt(qa * qb)
        d1, d2, off = self.a - ch * qa, self.b - ch * qb, self.c1 - sh * g
        lam_x = ((d1 + d2) - math.sqrt((d1 - d2) ** 2 + 4 * off * off)) / 2.0
        d1, d2, off = self.a - ch / qa, self.b - ch / qb, self.c2 + sh / g
        lam_p = ((d1 + d2) - math.sqrt((d1 - d2) ** 2 + 4 * off * off)) / 2.0
        return min(lam_x, lam_p)

    def aligned_merit(self, x) -> float:
        sa, sb, r = float(x[0]), float(x[1]), float(x[2])
        if max(abs(sa), abs(sb), abs(r)) > _PARAM_CAP:
            return 1e9
        self.evals += 1
        lam = self._aligned_lam(sa, sb, r)
        value = entanglement_entropy(math.exp(-2 * abs(r)))
        self._track(value, lam, (0.0, sa, 0.0, sb, r))
        return value + _PENALTY * max(0.0, -lam)

    def product_violation(self, x) -> float:
        """Feasibility violation of the pure product candidate (r = 0)."""
        sa, sb = float(x[0]), float(x[1])
        if max(abs(sa), abs(sb)) > _PARAM_CAP:
            return 1e9
        self.evals += 1
        lam = self._aligned_lam(sa, sb, 0.0)
        self._track(0.0, lam, (0.0, sa, 0.0, sb, 0.0))
        return max(0.0, -lam)

    def product_witness_scan(self, points: int = 400) -> bool:
        """Scan for a feasible pure product diag(qa, 1/qa, qb, 1/qb) <= V.

        For each qa the two sector constraints bound qb by a closed-form
        interval; a separable standard-form state always admits such a
        witness (symmetrizing any product witness over the p-sign flip
        keeps it below V and makes it axis-aligned).  Returns True when a
        strictly feasible candidate was found and tracked.
        """
        a, b, c1, c2 = self.a, self.b, self.c1, self.c2
        self.evals += points
        qa = np.linspace(1.0 / a, a, points + 2)[1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            qb_hi = b - c1 * c1 / (a - qa)
            inv_lo = b - c2 * c2 / (a - 1.0 / qa)
            qb_lo = np.where(inv_lo > 0.0, 1.0 / inv_lo, np.inf)
        ok = (qb_hi > 0.0) & (qb_lo <= qb_hi)
        if not np.any(ok):
            return False
        k = int(np.argmax(np.where(ok, qb_hi - qb_lo, -np.inf)))
        qb = math.sqrt(qb_lo[k] * qb_hi[k])
        sa, sb = 0.5 * math.log(qa[k]), 0.5 * math.log(qb)
        lam = self._aligned_lam(sa, sb, 0.0)
        self._track(0.0, lam, (0.0, sa, 0.0, sb, 0.0))
        return lam >= -self.psd_tol

    # ----- full five-parameter path -----

    def full_merit(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if np.max(np.abs(x)) > _PARAM_CAP:
            return 1e9
        self.evals += 1
        gamma = pure_cms_from_parameters(x)
        lam = float(np.linalg.eigvalsh(self.v - gamma)[0])
        value = entanglement_entropy(math.exp(-2 * abs(float(x[4]))))
        self._track(value, lam, x)
        return value + _PENALTY * max(0.0, -lam)

    @property
    def remaining(self) -> int:
        return self.budget - self.evals


def _aligned_grid(nu_t: float, scale: float) -> np.ndarray:
    """Deterministic (s_a, s_b, r) start grid."""
    r_hi = 0.4 + (0.0 if nu_t >= 1.0 else -0.7 * math.log(nu_t))
    s_hi = 0.6 + 0.5 * math.log(scale)
    rs = np.linspace(0.0, r_hi, 12)
    ss = np.linspace(-s_hi, s_hi, 7)
    sa_g, sb_g, r_g = np.meshgrid(ss, ss, rs, indexing="ij")
    return np.column_stack([sa_g.ravel(), sb_g.ravel(), r_g.ravel()])


def _tangency_seed(m: float, c1: float, c2: float) -> np.ndarray | None:
    """Optimal aligned parameters for a symmetric state (m, c1, c2).

    The minimizing pure matrix of a symmetric standard-form state is the
    equal-squeezing aligned candidate whose PPT eigenvalue nu matches the
    state's and whose feasibility constraints are tangent in both
    quadrature sectors simultaneously, at exp(2s) = (m - c1)/nu.  Exact
    for symmetric inputs, a strong warm start otherwise.
    """
    if m - c1 <= 0.0 or m + c2 <= 0.0:
        return None
    nu = math.sqrt((m - c1) * (m + c2))
    if nu >= 1.0:
        return None
    s = 0.5 * math.log((m - c1) / nu)
    return np.array([s, s, -0.5 * math.log(nu)])


def reference_geof(
    v: CovMat,
    tol: float = 1e-6,
    budget: int = 100_000,
    starts: int = 3,
    psd_tol: float = PSD_TOL,
) -> SearchResult:
    """Minimize pure-state entanglement over pure covariance matrices <= v.

    Deterministic: the coarse grid and seeds are fixed by the state,
    refinement runs Nelder-Mead from the `starts` best aligned points and
    then polishes in the full family, and the result is the best strictly
    feasible point evaluated anywhere.  Separable states come out at 0 (a
    feasible pure matrix with PPT eigenvalue >= 1 exists).

    Raises
    ------
    NonPhysicalStateError
        If v is not physical within psd_tol.
    """
    sf = bound_report(v, include_geof=False, psd_tol=psd_tol).standard_form
    nu_t = symplectic_spectrum(partial_transpose(sf.to_covmat().matrix), psd_tol).mu_minus

    search = _Search(sf, psd_tol, budget)
    # Reconstruction roundoff can leave the standard-form matrix a hair
    # below physicality, emptying the feasible set; inflate minimally.
    delta = 1e-12
    while not is_physical(search.to_covmat(), psd_tol) and delta < 1e-6:
        search.inflate(delta)
        delta *= 4.0

    seeds = [
        np.zeros(3),
        np.array([0.0, 0.0, max(0.0, -0.5 * math.log(min(nu_t, 1.0)))]),
        np.array([0.25 * math.log(sf.a), 0.25 * math.log(sf.b), 0.0]),
    ]
    for m_seed in (sf.a, sf.b, (sf.a + sf.b) / 2.0):
        seed = _tangency_seed(m_seed, sf.c1, sf.c2)
        if seed is not None:
            seeds.append(seed)
    coarse = np.vstack([seeds, _aligned_grid(nu_t, max(sf.a, sf.b))])
    merits = search.aligned_eval_batch(coarse)

    nm_options = {"xatol": 2e-8, "fatol": 1e-12, "adaptive": True}

    def run(fun, x0, maxfev, step):
        x0 = np.asarray(x0, dtype=float)
        simplex = np.vstack([x0, x0 + step * np.eye(len(x0))])
        minimize(
            fun,
            x0,
            method="Nelder-Mead",
            options=dict(
                nm_options, maxfev=max(1, maxfev), initial_simplex=simplex
            ),
        )

    if nu_t >= 1.0 and search.best_value > 0.0 and search.remaining > 0:
        # Separable state: the minimum is 0 at a pure product candidate;
        # locate one by the interval scan, with a violation-descent
        # fallback from the best r = 0 grid row.
        if not search.product_witness_scan() and search.remaining > 0:
            mask = coarse[:, 2] == 0.0
            x0 = coarse[mask][np.argmin(merits[mask])][:2]
            run(search.product_violation, x0, min(400, search.remaining), 0.2)

    if search.best_value > 0.0 and search.remaining > 0:
        order = np.argsort(merits, kind="stable")
        for x0 in coarse[order[: max(1, starts)]]:
            if search.remaining <= 0 or search.best_value == 0.0:
                break
            run(search.aligned_merit, x0, min(700, search.remaining), 0.15)
        # Aligned polish until improvements fall below tol.
        for _ in range(6):
            if search.best_params is None or search.remaining <= 0:
                break
            before = search.best_value
            if before == 0.0:
                break
            x0 = search.best_params[[1, 3, 4]]
            run(search.aligned_merit, x0, min(700, search.remaining), 0.02)
            if before - search.best_value < tol:
                break
        # Full-family polish; loops only if the rotations actually help.
        for _ in range(4):
            if search.best_params is None or search.remaining <= 0:
                break
            before = search.best_value
            if before == 0.0:
                break
            run(search.full_merit, search.best_params, min(400, search.remaining), 0.02)
            if before - search.best_value < tol:
                break

    if search.best_params is None:
        return SearchResult(math.inf, np.zeros(5), False, search.evals)
    return SearchResult(max(search.best_value, 0.0), search.best_params, True, search.evals)


# ---------------------------------------------------------------------------
# The one-angle reduction, one state at a time.
# ---------------------------------------------------------------------------

#: Coarse angles over [0, pi); the coarse pass has to find the basin of the
#: least local minimum of rho.
_COARSE = 32

#: At most this many coarse local minima are refined.
_MAX_BASINS = 3

#: Narrowest bracket refined: within about 1e-8 of its minimum rho is
#: flat to double precision, so narrower brackets only spend evaluations.
_MIN_WIDTH = 1e-9

#: Steps toward the interior for a witness failing the certificate on roundoff.
_RETREATS = (0.0, 1e-12, 1e-9)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Curve:
    """The tangent witnesses Gx(phi) of one standard form, with an evaluation count."""

    def __init__(self, a: float, b: float, c1: float, c2: float, budget: int):
        self.a, self.b, self.c1 = a, b, c1
        det_p = a * b - c2 * c2
        d = np.array([[a - b / det_p, c1 + c2 / det_p], [c1 + c2 / det_p, b - a / det_p]])
        # (Vx + P)/2, strictly inside P <= Gx <= Vx when Vx - P is definite.
        self.centre = ((a + b / det_p) / 2.0, (b + a / det_p) / 2.0, (c1 - c2 / det_p) / 2.0)
        w, q = np.linalg.eigh(d)
        # Roundoff can leave Vx - P a hair indefinite for (near) pure states.
        root = (q * np.sqrt(np.maximum(w, 0.0))) @ q.T
        self.s11, self.s12, self.s22 = float(root[0, 0]), float(root[0, 1]), float(root[1, 1])
        self.budget = budget
        self.evals = 0

    def witness(self, phi):
        """(Gx11, Gx22, Gx12) at the angle(s) phi; no evaluation is counted."""
        c, s = np.cos(phi), np.sin(phi)
        u1 = self.s11 * c + self.s12 * s
        u2 = self.s12 * c + self.s22 * s
        return self.a - u1 * u1, self.b - u2 * u2, self.c1 - u1 * u2

    def rho(self, phi):
        """rho at the angle(s) phi, counted against the budget."""
        g11, g22, g12 = self.witness(phi)
        self.evals += np.size(phi)
        return np.abs(g12) / np.sqrt(g11 * g22)

    def zero_angles(self) -> tuple[float, ...]:
        """Angles where Gx12(phi) vanishes: none for an entangled state.

        Gx12 = c1 - u1 u2 = c1 - m0 - m1 cos 2phi - m2 sin 2phi, expanding
        u1 u2 with the entries of the symmetric root of Vx - P.
        """
        s11, s12, s22 = self.s11, self.s12, self.s22
        m0 = s12 * (s11 + s22) / 2.0
        m1 = s12 * (s11 - s22) / 2.0
        m2 = (s11 * s22 + s12 * s12) / 2.0
        rhs = self.c1 - m0
        amp = math.hypot(m1, m2)
        if abs(rhs) > amp:
            return ()
        phase = math.atan2(m2, m1)
        half = math.acos(rhs / amp) if amp > 0.0 else 0.0
        return tuple(((phase + sign * half) / 2.0) % math.pi for sign in (1.0, -1.0))

    def refine(self, lo: float, hi: float, tol: float) -> tuple[float, float, bool]:
        """Golden-section search for the minimum of rho on [lo, hi].

        Returns (best rho, its angle, converged); stops early, unconverged,
        when the budget runs out.
        """
        best = (math.inf, lo)
        x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        if self.budget - self.evals < 2:
            return best[0], best[1], False
        f1, f2 = self.rho(np.array([x1, x2]))
        best = min(best, (f1, x1), (f2, x2))
        while hi - lo > tol:
            if self.evals >= self.budget:
                return best[0], best[1], False
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = float(self.rho(x1))
                best = min(best, (f1, x1))
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = float(self.rho(x2))
                best = min(best, (f2, x2))
        return best[0], best[1], True

    def certify(self, v: np.ndarray, g, psd_tol: float) -> np.ndarray | None:
        """Parameters of a witness at Gx = g = (Gx11, Gx22, Gx12) passing
        eigvalsh(V - G) >= -psd_tol, or None.

        An optimal witness touches V, so roundoff decides the sign of the
        smallest eigenvalue.  When that fails the check, Gx is moved a
        little toward the centre of its interval, where both constraints
        hold strictly whenever Vx - P is definite.
        """
        for eps in _RETREATS:
            params = _parameters(*(x + eps * (c - x) for x, c in zip(g, self.centre)))
            gamma = pure_cms_from_parameters(params)
            if float(np.linalg.eigvalsh(v - gamma)[0]) >= -psd_tol:
                return params
        return None


def _parameters(g11: float, g22: float, g12: float) -> np.ndarray:
    """(0, s_a, 0, s_b, r) of the pure matrix Gx (+) Gx^-1."""
    sh = g12 / math.sqrt(g11 * g22 - g12 * g12)
    r = 0.5 * math.asinh(sh)
    ch = math.cosh(2 * r)
    return np.array([0.0, 0.5 * math.log(g11 / ch), 0.0, 0.5 * math.log(g22 / ch), r])


def scalar_geof(
    v: CovMat,
    tol: float = 1e-6,
    budget: int = 100_000,
    psd_tol: float = PSD_TOL,
) -> SearchResult:
    """Minimize pure-state entanglement over pure covariance matrices <= v.

    Deterministic.  `tol` is the width, in radians of phi, below which a
    bracket counts as converged (at least 1e-9); the value error is of
    order tol^2.
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
    if budget < 1:
        raise DomainError(f"geof budget must be at least 1, got {budget}")
    a, b, c1, c2 = bound_report(v, include_geof=False, psd_tol=psd_tol).standard_form
    # Reconstruction roundoff can leave the standard-form matrix a hair
    # below physicality, emptying the feasible set; inflate minimally.
    delta = 1e-12
    ref = CovMat.from_standard_form(a, b, c1, c2)
    while not is_physical(ref, psd_tol) and delta < 1e-6:
        a += delta
        b += delta
        ref = CovMat.from_standard_form(a, b, c1, c2)
        delta *= 4.0
    curve = _Curve(a, b, c1, c2, budget)

    def finish(g: tuple[float, float, float]) -> SearchResult:
        params = curve.certify(ref.matrix, g, psd_tol)
        if params is None:
            return SearchResult(math.inf, np.zeros(5), False, curve.evals)
        value = entanglement_entropy(math.exp(-2 * abs(float(params[4]))))
        return SearchResult(value, params, True, curve.evals)

    for phi in curve.zero_angles()[:budget]:
        curve.evals += 1
        g11, g22, _ = curve.witness(phi)
        product = finish((g11, g22, 0.0))
        if product.feasible:
            return product

    n = min(_COARSE, budget - curve.evals)
    if n < 1:  # uncertified zero angles used up the whole budget
        return SearchResult(math.inf, np.zeros(5), False, curve.evals)
    grid = np.arange(n) * (math.pi / n)
    rho = curve.rho(grid)
    best = (float(np.min(rho)), float(grid[np.argmin(rho)]))
    if n == _COARSE:
        step = math.pi / n
        basins = np.flatnonzero((rho < np.roll(rho, 1)) & (rho <= np.roll(rho, -1)))
        basins = basins[np.argsort(rho[basins], kind="stable")][:_MAX_BASINS]
        for k in basins if basins.size else [int(np.argmin(rho))]:
            value, phi, converged = curve.refine(
                grid[k] - step, grid[k] + step, max(tol, _MIN_WIDTH)
            )
            best = min(best, (value, phi))
            if not converged:
                break
    return finish(tuple(float(x) for x in curve.witness(best[1])))
