"""Reference GeoF search, kept as a test-time cross-check of the package oracle.

This is the 5-parameter search that `eofbounds.geof` used before the
one-angle reduction: a coarse grid plus analytic tangency seeds,
penalised Nelder-Mead refinement in the axis-aligned subfamily and a
full-family polish.  The reported minimum is the best strictly feasible
evaluation seen anywhere, so it is an upper bound on the Gaussian EoF;
the package oracle must never be above it by more than the tolerance of
the comparison.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from eofbounds.entanglement import entanglement_entropy, entanglement_entropy_vec
from eofbounds.geof import GeofResult, pure_cms_from_parameters
from eofbounds.states import (
    CovMat,
    is_physical,
    ppt_eigenvalues,
    require_physical,
    standard_form,
)
from eofbounds.symplectic import PSD_TOL

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
) -> GeofResult:
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
    require_physical(v, psd_tol)
    sf = standard_form(v)
    nu_t = ppt_eigenvalues(sf.to_covmat(), psd_tol).mu_minus

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

    exhausted = search.remaining <= 0
    if search.best_params is None:
        return GeofResult(
            value=math.inf,
            argmin_parameters=np.zeros(5),
            feasible=False,
            iterations=search.evals,
            budget_exhausted=exhausted,
            reference_matrix=search.v,
        )
    return GeofResult(
        value=max(search.best_value, 0.0),
        argmin_parameters=search.best_params,
        feasible=True,
        iterations=search.evals,
        budget_exhausted=exhausted,
        reference_matrix=search.v,
    )
