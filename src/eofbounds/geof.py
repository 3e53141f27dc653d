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
arrays of standard forms, each step over all states at once (`bound_report`
is the case n = 1):

* a separable state (Werner & Wolf, PRL 86, 3658, 2001) has a product
  witness (r = 0), of value exactly 0.0.  On the curve Gx12 is
  (c1 + P12)/2 plus a sinusoid of amplitude sqrt(D11 D22)/2, D = Vx - P,
  so it changes sign iff (c1 + P12)^2 <= D11 D22.  Its zeros are
  diagonal Gx = diag(g11, g22) tangent to both Vx and P,
  (a - g11)(b - g22) = c1^2 and (g11 - P11)(g22 - P22) = P12^2; one of
  them is solved in closed form, and the curve is not built;
* every other state evaluates rho at the angles theta = 2 arctan t of the
  real parts of the four roots of its quartic, the eigenvalues of one
  (n, 4, 4) companion matrix, and keeps the least rho that is not NaN
  (g11 g22 < 0 at an angle makes its rho NaN).  Taking the real part of a
  complex pair costs an evaluation and loses no real root.

So each state has one candidate: 1 evaluation for a separable state, 4
for every other.  All candidates are certified together.  A value is kept
only if its witness G, rebuilt from its row (s_a, s_b, r), passes
V - G >= -allowance; for G = Gx (+) Gx^-1 that is two 2x2 tests on
Vx - Gx and Vp - Gx^-1 (`_certified`).  A state whose candidate fails has
no GeoF.  A candidate left inf or NaN by overflow fails too, under the
search's one floating-point policy (`_geof_forms`).
"""

from __future__ import annotations

import sys
import types

import numpy as np

from .entanglement import entanglement_entropy_vec
from .symplectic import PSD_TOL


#: (1 + t^2) (f0 + f1 cos theta + f2 sin theta) = f @ _HALF, a quadratic in
#: t = tan(theta / 2) (ascending powers).
_HALF = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])

#: Machine epsilon, and the floor of the denominators of the product
#: witness's tangency terms and of the quartic's leading coefficient.
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
#: Roundoff allowed per max(a, b)^3 by the certificate (`_certified`), and
#: per scale^2 by the physicality test (`bounds._physical`): 16 eps.
_ROUNDOFF = 16.0 * _EPS

#: Row and column indices of the entries (11, 22, 12) of 2x2 matrices, and
#: those of the subdiagonal of a 4x4 companion matrix.
_ROW, _COL = np.array((0, 1, 0)), np.array((0, 1, 1))
_SUB_ROW, _SUB_COL = np.arange(1, 4), np.arange(3)
#: The diagonal of Z = diag(1, -1), and the powers that differentiate
#: polynomials of degree 2 and 4 (ascending, constant term dropped).
_Z = np.array((1.0, -1.0))
_D2, _D4 = np.array((1.0, 2.0)), np.array((1.0, 2.0, 3.0, 4.0))


def _curve(vx, p) -> np.ndarray:
    """Rows (f0, f1, f2) of Gx11, Gx22 and Gx12 on the curve, shape (3, n, 3), built only
    for the states that are not separable, from the Vx and P = Vp^-1 (2, 2, n) of `_geof_forms`."""
    vx, p = vx.transpose(2, 0, 1), p.transpose(2, 0, 1)
    w, q = np.linalg.eigh(vx - p)
    # Roundoff can leave Vx - P a hair indefinite for (near) pure states.
    s = (q * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ q.transpose(0, 2, 1)
    # Gx = (Vx + P)/2 - (S Z S cos theta + S X S sin theta)/2.
    f = np.array([vx + p, -(s * _Z) @ s, -s[:, :, ::-1] @ s]) / 2.0
    return f[..., _ROW, _COL].transpose(2, 1, 0)


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
    """Candidate angles theta (n, 4): the real parts of the roots of the quartic,
    NaN where the companion matrix is not finite."""
    g11, g22, g12 = rows @ _HALF
    g = _mul(g11, g22)
    # 2 g12' g - g12 g', whose t^5 terms cancel.
    quartic = _mul(2.0 * g12[:, 1:] * _D2, g) - _mul(g12, g[:, 1:] * _D4)
    quartic = quartic[:, :5]
    # A vanishing leading coefficient is a root at theta = pi (t = inf); the
    # floor keeps that root finite and large, and a pure state's all-zero
    # quartic (rho constant on a one-point curve) finite.
    floor = _EPS * np.abs(quartic).max(axis=1) + _TINY
    quartic[:, 4] = np.where(np.abs(quartic[:, 4]) > floor, quartic[:, 4], floor)
    companion = np.zeros((quartic.shape[0], 4, 4))
    companion[:, _SUB_ROW, _SUB_COL] = 1.0
    companion[:, :, 3] = -quartic[:, :4] / quartic[:, 4:]
    finite = np.isfinite(companion).all(axis=(1, 2))
    roots = np.full(quartic[:, :4].shape, np.nan)
    roots[finite] = np.linalg.eigvals(companion[finite]).real
    return 2.0 * np.arctan(roots)


def _parameters(g11, g22, g12) -> np.ndarray:
    """Witness rows (s_a, s_b, r) of the pure matrices Gx (+) Gx^-1 (see `_certified`)."""
    r = 0.5 * np.arcsinh(g12 / np.sqrt(g11 * g22 - g12 * g12))
    ch = np.cosh(2 * r)
    return np.array((0.5 * np.log(g11 / ch), 0.5 * np.log(g22 / ch), r)).T


def _least_eigenvalue(d11, d22, d12):
    """Smaller eigenvalue of the symmetric 2x2 matrices [[d11, d12], [d12, d22]]."""
    return (d11 + d22 - np.hypot(d11 - d22, 2.0 * d12)) / 2.0


def _certified(a, b, c1, c2, witness, psd_tol: float) -> np.ndarray:
    """Whether the witnesses G = Gx (+) Gx^-1 of the rows (s_a, s_b, r) are below V.

    Gx = e^S [[ch, sh], [sh, ch]] e^S with S = diag(s_a, s_b) is rebuilt
    from each row, and both Vx - Gx and Vp - Gx^-1 must have least
    eigenvalue >= -(psd_tol + 16 eps max(a, b)^3).  An optimal witness
    touches V, so roundoff decides the sign of these tests.  Converting Gx
    to (s_a, s_b, r) takes sqrt(det Gx), and det Gx = Gx11 Gx22 - Gx12^2
    loses about eps max(a, b)^2 to cancellation.  For det Gx of order 1, as
    for a pure state, that moves 2r by about as much, and so cosh 2r and
    the rebuilt entries, of size max(a, b), by about eps max(a, b)^3.  The
    tests came out no lower than -9 eps max(a, b)^3 on 40000 TMSV states
    (r up to 3, half in random local frames) and -2 on the README grids and
    on random forms with a, b up to 50.  16 eps max(a, b)^3 is allowed, as
    the physicality test (`bounds._physical`) allows 16 eps scale^2 for its
    own roundoff.  NaN rows fail, and so does every row where the allowance
    is not finite (max(a, b) >= 5.6e102): a non-finite allowance certifies nothing.
    """
    allowance = psd_tol + _ROUNDOFF * np.maximum(a, b) ** 3
    ch, sh = np.cosh(2 * witness[:, 2]), np.sinh(2 * witness[:, 2])
    ea, eb = np.exp(2 * witness[:, 0]), np.exp(2 * witness[:, 1])
    root = np.sqrt(ea * eb)
    x = _least_eigenvalue(a - ch * ea, b - ch * eb, c1 - sh * root)
    p = _least_eigenvalue(a - ch / ea, b - ch / eb, c2 + sh / root)
    return np.isfinite(allowance) & (np.minimum(x, p) >= -allowance)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _geof_forms(a, b, c1, c2, psd_tol: float = PSD_TOL):
    """Gaussian EoF of physical standard forms (a, b, c1, c2), searched together.

    Takes numpy arrays of n standard forms, picks one candidate Gx per state
    (the product witness of a separable state, else the least-rho
    stationary angle on the curve) and certifies all of them in one
    `_certified` call.  Returns, per state, the value E(exp(-2|r|)) (NaN
    where the candidate failed the certificate), the witness row
    (s_a, s_b, r) of shape (n, 3), NaN where it failed, and the witnesses
    evaluated, 1 or 4.  `psd_tol` widens the certificate's allowance, as in
    `_certified`.

    One floating-point policy covers the search: overflow, invalid operations
    and division by zero are ignored, and the inf or NaN they leave in a
    candidate (on huge forms: the allowance max(a, b)^3, the product
    witness's w, a vanishing g11 g22 on the curve; sqrt and log of a det Gx
    or entry that is not positive) fails the certificate like any other.
    `_stationary` hands `eigvals` only finite companion matrices.
    """
    a, b, c1, c2 = np.array((a, b, c1, c2), dtype=float).reshape(4, -1)
    vx = np.array(((a, c1), (c1, b)))
    p = np.array(((b, -c2), (-c2, a))) / (a * b - c2 * c2)
    d = vx - p
    dd = d[0, 0] * d[1, 1]
    # The candidate Gx = (g11, g22, g12) of each state.
    g11, g22, g12 = np.zeros((3, a.size))

    # Separable states, where Gx12 changes sign on the curve: the product
    # witness a - g11 = D11 c1^2 / w with w = (K + sqrt(K^2 - 4 D11 D22 c1^2))/2,
    # and g22 from its tangency with P.
    separable = (c1 + p[0, 1]) ** 2 <= dd
    k = separable.nonzero()[0]
    if k.size:
        (p11, p22, p12), d11, dd = p[_ROW, _COL][:, k], d[0, 0, k], dd[k]
        c, q, s = c1[k], np.abs(p12), np.sqrt(dd)
        cc, qq = c * c, q * q
        # K^2 - 4 D11 D22 c1^2 with K = D11 D22 + c1^2 - P12^2, factored so
        # that it keeps its digits near the PPT boundary, where it vanishes.
        disc = np.maximum((s - c - q) * (s - c + q), 0.0) * ((s + c) ** 2 - qq)
        # The floors make a tangency term that vanishes (c1 = 0, where w may
        # be 0, or P12 = 0) exactly 0, not 0/0.
        w = np.maximum((dd + cc - qq + np.sqrt(disc)) / 2.0, _TINY)
        g11[k] = a[k] - d11 * cc / w
        g22[k] = p22 + qq / np.maximum(g11[k] - p11, _TINY)

    # Every other state: the least rho of its stationary angles on the curve,
    # skipping NaN, which np.argmin would return first.
    k = (~separable).nonzero()[0]
    if k.size:
        rows = _curve(vx[..., k], p[..., k])
        x11, x22, x12 = _at(rows, _stationary(rows))
        rho = np.abs(x12) / np.sqrt(x11 * x22)
        best = (np.arange(k.size), np.argmin(np.where(rho >= 0.0, rho, np.inf), axis=1))
        g11[k], g22[k], g12[k] = x11[best], x22[best], x12[best]

    # One certificate for every candidate; a NaN witness row has a NaN value.
    witness = _parameters(g11, g22, g12)
    witness[~_certified(a, b, c1, c2, witness, psd_tol)] = np.nan
    return entanglement_entropy_vec(np.exp(-2.0 * np.abs(witness[:, 2]))), witness, np.where(separable, 1, 4)


class _CallableModule(types.ModuleType):
    """This module, callable as `eofbounds.geof(v)` for the benchmark (bench/selftest.py)."""

    def __call__(self, v, psd_tol: float = PSD_TOL) -> types.SimpleNamespace:
        """The GeoF of v and its padded witness, the benchmark's only entry.

        The library's GeoF is `bound_report(v).geof`, with its witness
        `geof_witness`.  This call is kept until ROADMAP item 1 moves the
        benchmark to the report and deletes it.  It checks and reduces v by
        `bound_report(v, False, psd_tol)`, runs `_geof_forms` at n = 1 and
        returns a namespace of five attributes:

        * `value`: the GeoF, or inf where no witness passes;
        * `argmin_parameters`: (theta_a, s_a, theta_b, s_b, r) of the pure
          witness TMSV(r) conjugated by R(theta) diag(e^s, e^-s) on each
          mode, in the frame of `reference_matrix`; theta_a = theta_b = 0,
          and s_a, s_b, r are NaN where no witness passes;
        * `feasible`: whether a witness passed;
        * `iterations`: the witnesses evaluated, 1 for a separable state
          and 4 for every other;
        * `reference_matrix`: the standard-form covariance matrix searched.
        """
        from .bounds import bound_report  # bounds imports this module

        sf = bound_report(v, False, psd_tol).standard_form
        value, witness, evals = _geof_forms(*sf, psd_tol)
        feasible = not np.isnan(value[0])
        return types.SimpleNamespace(
            value=float(value[0]) if feasible else np.inf, argmin_parameters=np.insert(witness[0], (0, 1), 0.0),
            feasible=feasible, iterations=int(evals[0]), reference_matrix=sf.to_covmat().matrix)


sys.modules[__name__].__class__ = _CallableModule
