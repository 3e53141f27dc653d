"""The benchmark's own closed forms and output checks.

Nothing here imports eofbounds: every check recomputes what it needs from
the invariants or the matrix, so a change to the package cannot make its
own outputs pass.  A check returns None when the output passes and a short
reason string when it fails.
"""

from __future__ import annotations

import math

import numpy as np

#: Values inside this distance of a physicality or entanglement threshold
#: are not classified; the program and the closed form may round either way.
MARGIN = 1e-7

J4 = np.array(
    [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
)


def sym_eof(nu: float) -> float:
    """EoF of a symmetric state from its smallest PPT symplectic eigenvalue."""
    if nu >= 1.0:
        return 0.0
    rt = math.sqrt(nu)
    cp = (1.0 / rt + rt) ** 2 / 4.0
    cm = (1.0 / rt - rt) ** 2 / 4.0
    return cp * math.log(cp) - cm * math.log(cm)


def pure_entropy(x: float) -> float:
    """Entropy of entanglement of a pure state whose reduced block has det x**2."""
    if x <= 1.0:
        return 0.0
    p, m = (x + 1.0) / 2.0, (x - 1.0) / 2.0
    return p * math.log(p) - m * math.log(m)


def standard_form(i1: float, i2: float, i3: float, i4: float):
    """(a, b, c1, c2) with c1 >= |c2| for the invariants, or None if none exists."""
    if i1 <= 0.0 or i2 <= 0.0:
        return None
    a, b = math.sqrt(i1), math.sqrt(i2)
    s = i4 / (a * b)
    if s < 2.0 * abs(i3) - 1e-9 * max(1.0, s):
        return None
    root = math.sqrt(max(s * s - 4.0 * i3 * i3, 0.0))
    c1 = math.sqrt(max((s + root) / 2.0, 0.0))
    c2 = math.copysign(math.sqrt(max((s - root) / 2.0, 0.0)), i3) if i3 else 0.0
    return a, b, c1, c2


def spectrum(a: float, b: float, c1: float, c2: float, ppt: bool = False):
    """Smallest symplectic eigenvalue of the standard form, or None if not positive definite.

    Uses mu_minus^2 = 2 det / (Delta + sqrt(Delta^2 - 4 det)), which does not
    cancel when the two eigenvalues nearly coincide.
    """
    if ppt:
        c2 = -c2
    dx, dp = a * b - c1 * c1, a * b - c2 * c2
    if a <= 0.0 or b <= 0.0 or dx <= 0.0 or dp <= 0.0:
        return None
    det = dx * dp
    delta = a * a + b * b + 2.0 * c1 * c2
    return math.sqrt(2.0 * det / (delta + math.sqrt(max(delta * delta - 4.0 * det, 0.0))))


def invariants_of(m: np.ndarray) -> tuple[float, float, float, float]:
    """(det A, det B, det C, Tr(A J C J B J C^T J)) of a 4x4 covariance matrix."""
    j = J4[:2, :2]
    a, b, c = m[:2, :2], m[2:, 2:], m[:2, 2:]
    i4 = float(np.trace(a @ j @ c @ j @ b @ j @ c.T @ j))
    return float(np.linalg.det(a)), float(np.linalg.det(b)), float(np.linalg.det(c)), i4


def classify(inv) -> dict:
    """Physicality and entanglement of the state with these invariants.

    `physical` and `entangled` are True, False, or None when the state sits
    within MARGIN of the threshold.
    """
    sf = standard_form(*inv)
    if sf is None:
        return {"sf": None, "physical": False, "entangled": None, "nu_t": None}
    mu = spectrum(*sf)
    nu_t = spectrum(*sf, ppt=True)
    if mu is None:
        physical = False
    elif mu >= 1.0 + MARGIN:
        physical = True
    elif mu <= 1.0 - MARGIN:
        physical = False
    else:
        physical = None
    entangled = None
    if physical and nu_t is not None:
        if nu_t <= 1.0 - MARGIN:
            entangled = True
        elif nu_t >= 1.0 + MARGIN:
            entangled = False
    return {"sf": sf, "physical": physical, "entangled": entangled, "nu_t": nu_t}


# ---------------------------------------------------------------------------
# Scan rows
# ---------------------------------------------------------------------------

SCAN_FLOATS = ("I1", "I2", "I3", "I4", "mu_tilde_minus", "eof_lower_natural",
               "eof_sigma", "geof", "eeof", "eof_upper_natural")


def parse_scan_csv(text: str) -> list[dict]:
    """Rows of a scan CSV as dicts; empty cells become None, booleans bool."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, cell in zip(header, line.split(",")):
            if cell == "":
                row[key] = None
            elif key in SCAN_FLOATS:
                row[key] = float(cell)
            elif cell in ("true", "false"):
                row[key] = cell == "true"
            else:
                row[key] = cell
        rows.append(row)
    return rows


def on_diagonal(row: dict) -> bool:
    """I1 = I2 up to the rounding of the grid axes."""
    return abs(row["I1"] - row["I2"]) <= 1e-12 * row["I1"]


def check_order(values: dict, lower: str, sigma: str, uppers: tuple[str, ...],
                tol_bound: float, geof_tol: float):
    """lower <= sigma <= geof <= every upper, within the tolerances.

    `values` maps the names to numbers or None (not reported); geof is
    under the key "geof".  Returns the first violation or None.
    """
    g = values["geof"]
    if values[lower] > values[sigma] + tol_bound:
        return f"{lower} > {sigma}"
    if g is not None and values[sigma] > g + geof_tol:
        return f"{sigma} > geof"
    for name in uppers:
        up = values[name]
        if up is None:
            continue
        if g is not None and g > up + geof_tol:
            return f"geof > {name}"
        if g is None and values[sigma] > up + tol_bound:
            return f"{sigma} > {name}"
    return None


def check_scan_row(row: dict, geof_on: bool, tol_bound: float, geof_tol: float):
    """Check one scan row against the closed form; returns (reason or None, class)."""
    inv = (row["I1"], row["I2"], row["I3"], row["I4"])
    cls = classify(inv)
    status = row.get("status")
    if status in ("unphysical", "no_state"):
        if cls["physical"]:
            return f"{status} row is physical by the closed form", cls
        return None, cls
    if status != "ok":
        return f"unknown status {status!r}", cls
    if cls["physical"] is False:
        return "ok row is unphysical by the closed form", cls
    values = {k: row.get(k) for k in ("eof_lower_natural", "eof_sigma", "geof",
                                      "eeof", "eof_upper_natural")}
    for key in ("eof_lower_natural", "eof_sigma", "eeof"):
        if values[key] is None:
            return f"{key} missing", cls
    if geof_on and values["geof"] is None:
        return "geof missing on a physical row", cls
    for key, value in values.items():
        if value is not None and not math.isfinite(value):
            return f"{key} not finite", cls
    reason = check_order(values, "eof_lower_natural", "eof_sigma", ("eof_upper_natural",),
                         tol_bound, geof_tol)
    if reason:
        return reason, cls
    if cls["entangled"] is not None and row.get("entangled") is not cls["entangled"]:
        return f"entangled={row.get('entangled')} but closed-form nu_t={cls['nu_t']:.12g}", cls
    g = values["geof"]
    if cls["entangled"] is False and g is not None and abs(g) > geof_tol:
        return f"geof {g:.3g} on a separable row", cls
    if on_diagonal(row) and cls["physical"]:
        exact = sym_eof(cls["nu_t"])
        for key, value in values.items():
            tol = geof_tol if key == "geof" else tol_bound
            if value is not None and abs(value - exact) > tol:
                return f"diagonal row: {key} {value:.12g} != closed form {exact:.12g}", cls
    return None, cls


# ---------------------------------------------------------------------------
# Analyze reports
# ---------------------------------------------------------------------------


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_report(rc: int, report: dict | None, state: dict, tol_bound: float, geof_tol: float):
    """Check one analyze op: exit code, finiteness, bound order, hierarchy flag, closed form."""
    if rc != 0:
        return f"exit code {rc} on a physical input"
    if report is None:
        return "no report written"
    if not _all_finite(report):
        return "non-finite value in report"
    bounds = report["bounds"]
    reason = check_order(bounds, "lower_natural", "lower_sigma", ("upper_natural", "upper_searched"),
                         tol_bound, geof_tol)
    if reason:
        return reason
    if not bounds["flags"]["hierarchy_ok"]:
        return "hierarchy_ok false: " + "; ".join(bounds["flags"]["violations"])
    if report["entangled"] is not state["entangled"]:
        return f"entangled={report['entangled']} for a state built with entangled={state['entangled']}"
    g = bounds["geof"]
    if g is None:
        return "geof missing"
    if not state["entangled"] and abs(g) > geof_tol:
        return f"geof {g:.3g} on a separable state"
    if state["cls"] == "sym" and abs(g - sym_eof(state["nu_t"])) > geof_tol:
        return f"geof {g:.12g} != closed form {sym_eof(state['nu_t']):.12g} on a symmetric state"
    return None


# ---------------------------------------------------------------------------
# GeoF witness certification
# ---------------------------------------------------------------------------


def pure_witness(params) -> np.ndarray:
    """Pure covariance matrix for (theta_a, s_a, theta_b, s_b, r).

    The two-mode squeezed core TMSV(r) conjugated by R(theta) diag(e^s, e^-s)
    on each mode, the parametrization documented on GeofResult.
    """
    ta, sa, tb, sb, r = (float(x) for x in params)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    core = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    loc = np.zeros((4, 4))
    for theta, s, off in ((ta, sa, 0), (tb, sb, 2)):
        c, n = math.cos(theta), math.sin(theta)
        loc[off:off + 2, off:off + 2] = np.array([[c, n], [-n, c]]) @ np.diag([math.exp(s), math.exp(-s)])
    return loc @ core @ loc.T


def certify_geof(v: np.ndarray, result, psd_tol: float):
    """Certify a GeofResult as an upper bound on the Gaussian EoF of v.

    Rebuilds the pure witness G from the returned parameters and checks that
    G is pure, that G <= reference_matrix within psd_tol, that the reference
    is the standard form of v, and that the value is the entanglement of G.
    """
    if not getattr(result, "feasible", False):
        return "geof infeasible"
    ref = getattr(result, "reference_matrix", None)
    params = getattr(result, "argmin_parameters", None)
    if ref is None or params is None or np.shape(params) != (5,):
        return "no witness parameters"
    ref = np.asarray(ref, dtype=float)
    g = pure_witness(params)
    scale = max(1.0, float(np.max(np.abs(g)))) ** 2
    if float(np.max(np.abs((J4 @ g) @ (J4 @ g) + np.eye(4)))) > 1e-9 * scale:
        return "witness is not pure"
    lam = float(np.linalg.eigvalsh((ref - g + (ref - g).T) / 2.0)[0])
    if lam < -psd_tol:
        return f"witness not below the state: min eig(V - G) = {lam:.3e}"
    sf = standard_form(*invariants_of(np.asarray(v, dtype=float)))
    ref_sf = (ref[0, 0], ref[2, 2], ref[0, 2], ref[1, 3])
    if sf is None or max(abs(x - y) for x, y in zip(sf, ref_sf)) > 2e-6:
        return "reference_matrix is not the standard form of the input"
    x = math.sqrt(max(float(np.linalg.det(g[:2, :2])), 0.0))
    if abs(result.value - pure_entropy(x)) > 1e-9 * max(1.0, result.value):
        return f"value {result.value:.12g} != entanglement of witness {pure_entropy(x):.12g}"
    return None
