"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here; sample sizes follow the stated budgets (seconds for closed-form
checks, minutes where the numerical oracle is involved).
"""

import json
import math

import numpy as np

from eofbounds.bounds import eeof, eof_symmetric, is_entangled, natural_bounds, sigma_lower_bound
from eofbounds.cli import SCAN_COLUMNS, main
from eofbounds.entanglement import entanglement_entropy
from eofbounds.geof import geof
from eofbounds.states import CovMat

from conftest import (
    partial_transpose,
    random_local_symplectic,
    random_sp2,
    random_standard_form,
    symplectic_spectrum,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def equal_local_symplectic(rng):
    s2 = random_sp2(rng)
    s = np.zeros((4, 4))
    s[:2, :2] = s2
    s[2:, 2:] = s2
    return s


def test_criterion_1_closed_form_agreement():
    # 1e4 symmetric physical states: eof_symmetric vs f(nu-tilde) from the
    # invariant formula and from the general spectral route, within 1e-10.
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(10_000):
        sf = random_standard_form(rng, symmetric=True)
        v = sf.to_covmat()
        if i % 2:  # half the sample in a rotated (non-standard) frame
            v = v.conjugate(equal_local_symplectic(rng))
        m, c1, c2 = sf.a, sf.c1, sf.c2
        via_invariants = entanglement_entropy(math.sqrt((m - c1) * (m + c2)))
        via_general = entanglement_entropy(
            symplectic_spectrum(partial_transpose(v.matrix)).mu_minus
        )
        value = eof_symmetric(v, tol=1e-8)
        worst = max(
            worst,
            abs(value - via_invariants),
            abs(value - via_general),
            abs(via_invariants - via_general),
        )
    report(1, "closed-form agreement", worst < 1e-10, f"max deviation {worst:.3e}")


def test_criterion_2_symmetric_collapse():
    # 1e3 symmetric entangled states: all five quantities within 1e-6.
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1_000):
        v = random_standard_form(rng, symmetric=True, entangled=True).to_covmat()
        lower, upper = natural_bounds(v)
        values = [
            lower,
            upper,
            sigma_lower_bound(v),
            eeof(v),
            geof(v).value,
        ]
        worst = max(worst, max(values) - min(values))
    report(2, "symmetric collapse", worst < 1e-6, f"max spread {worst:.3e}")


def test_criterion_3_bound_sandwich():
    # 1e3 non-symmetric entangled states with a physical upper state:
    # lower <= sigma <= geof <= upper; zero violations allowed.
    rng = np.random.default_rng(103)
    violations = 0
    gap_lo = math.inf
    gap_hi = math.inf
    for _ in range(1_000):
        v = random_standard_form(
            rng, entangled=True, require_physical_upper=True, min_asymmetry=0.01
        ).to_covmat()
        lower, upper = natural_bounds(v)
        assert upper is not None
        sigma = sigma_lower_bound(v)
        g = geof(v).value
        ok = (
            lower <= sigma + 1e-9
            and sigma <= g + 1e-6
            and g <= upper + 1e-6
        )
        violations += not ok
        gap_lo = min(gap_lo, g - sigma)
        gap_hi = min(gap_hi, upper - g)
    report(
        3,
        "bound sandwich",
        violations == 0,
        f"violations {violations}/1000, min gaps sigma->geof {gap_lo:.2e}, "
        f"geof->upper {gap_hi:.2e}",
    )


def test_criterion_4_noise_monotonicity():
    # 1e3 pairs (v, v + Delta): eeof within 1e-12, geof within 2e-6.
    rng = np.random.default_rng(104)
    worst_eeof = -math.inf
    worst_geof = -math.inf
    for _ in range(1_000):
        v = random_standard_form(rng).to_covmat()
        g = rng.normal(size=(4, 4)) * rng.uniform(0.05, 0.3)
        noisy = CovMat(v.matrix + g @ g.T)
        worst_eeof = max(worst_eeof, eeof(noisy) - eeof(v))
        worst_geof = max(worst_geof, geof(noisy).value - geof(v).value)
    ok = worst_eeof <= 1e-12 and worst_geof <= 2e-6
    report(
        4,
        "noise monotonicity",
        ok,
        f"max eeof increase {worst_eeof:.2e}, max geof increase {worst_geof:.2e}",
    )


def test_criterion_5_williamson_ordering():
    # 1e4 PD pairs H1 >= H2: spectra ordered componentwise within 1e-9.
    rng = np.random.default_rng(105)
    worst = -math.inf
    for _ in range(10_000):
        g = rng.normal(size=(4, 4))
        h2 = g @ g.T + 0.05 * np.eye(4)
        p = rng.normal(size=(4, 4)) * rng.uniform(0.1, 1.0)
        h1 = h2 + p @ p.T
        s1 = symplectic_spectrum(h1)
        s2 = symplectic_spectrum(h2)
        worst = max(worst, s2.mu_minus - s1.mu_minus, s2.mu_plus - s1.mu_plus)
    report(5, "Williamson ordering", worst < 1e-9, f"max inversion {worst:.3e}")


def test_criterion_6_ppt_consistency():
    # 1e4 physical states: PPT decision from the invariant formula agrees
    # with the general spectral route; borderline band 1e-9 excluded.
    rng = np.random.default_rng(106)
    checked = 0
    disagreements = 0
    while checked < 10_000:
        v = random_standard_form(rng).to_covmat()
        if checked % 3 == 0:
            v = v.conjugate(random_local_symplectic(rng))
        mu_general = symplectic_spectrum(partial_transpose(v.matrix)).mu_minus
        if abs(mu_general - 1.0) < 1e-9:
            continue
        checked += 1
        if is_entangled(v) != (mu_general < 1.0):
            disagreements += 1
    report(
        6,
        "PPT criterion consistency",
        disagreements == 0,
        f"disagreements {disagreements}/10000",
    )


def test_criterion_7_scan_reproduction(tmp_path):
    # 40x40 grid, I3 = -0.2, I4 = 2|I3|sqrt(I1*I2), geof enabled: every
    # physical entangled point satisfies the sandwich, the diagonal
    # collapses to the symmetric value.
    spec = {
        "i1": {"min": 1.0, "max": 4.0, "steps": 40},
        "i2": {"min": 1.0, "max": 4.0, "steps": 40},
        "i3": -0.2,
        "i4": "2|I3|sqrt(I1*I2)",
    }
    spec_path = tmp_path / "scan.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "fig1.csv"
    code = main(["scan", "--input", str(spec_path), "--output", str(out_path)])
    assert code == 0

    lines = out_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == SCAN_COLUMNS
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 1600

    ok_rows = 0
    entangled_rows = 0
    sandwich_bad = 0
    diagonal_bad = 0
    for row in rows:
        if row["status"] != "ok":
            assert row["status"] in ("unphysical", "no_state")
            continue
        ok_rows += 1
        lower = float(row["eof_lower_natural"])
        sigma = float(row["eof_sigma"])
        g = float(row["geof"])
        if row["entangled"] == "true":
            entangled_rows += 1
            good = lower <= sigma + 1e-9 and sigma <= g + 1e-6
            if row["physical_upper_flag"] == "true":
                good = good and g <= float(row["eof_upper_natural"]) + 1e-6
            sandwich_bad += not good
        if row["I1"] == row["I2"]:
            cols = ["eof_lower_natural", "eof_sigma", "geof", "eeof", "eof_upper_natural"]
            vals = [float(row[c]) for c in cols if row[c] != ""]
            if max(vals) - min(vals) >= 1e-6:
                diagonal_bad += 1
    ok = sandwich_bad == 0 and diagonal_bad == 0 and entangled_rows > 100
    report(
        7,
        "grid scan reproduction",
        ok,
        f"{ok_rows} physical rows, {entangled_rows} entangled, "
        f"sandwich violations {sandwich_bad}, diagonal violations {diagonal_bad}",
    )


def test_criterion_8_entropy_spot_values():
    exact_zero = entanglement_entropy(1.0) == 0.0
    expected_half = (9 / 8) * math.log(9 / 8) - (1 / 8) * math.log(1 / 8)
    half_dev = abs(entanglement_entropy(0.5) - expected_half)
    xs = np.linspace(0.0, 1.0, 10_002)[1:-1]  # 1e4 interior points
    vals = [entanglement_entropy(float(x)) for x in xs]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    ok = exact_zero and half_dev < 1e-12 and monotone
    report(
        8,
        "entropy spot values",
        ok,
        f"f(1)==0 {exact_zero}, |f(0.5)-exact| {half_dev:.2e}, strict decrease {monotone}",
    )


def test_criterion_9_scan_determinism(tmp_path):
    spec = {
        "i1": {"min": 1.0, "max": 4.0, "steps": 8},
        "i2": {"min": 1.0, "max": 4.0, "steps": 8},
        "i3": -0.2,
    }
    spec_path = tmp_path / "scan.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["scan", "--input", str(spec_path), "--output", str(out1)]) == 0
    assert main(["scan", "--input", str(spec_path), "--output", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(9, "scan determinism", identical, "byte-identical CSV output")
