import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import warnings
from collections import namedtuple
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eofbounds.bounds import (
    _BOUNDS,
    _ORDER,
    _ROWS,
    _WITNESS,
    BoundReport,
    _standard_bounds,
    bound_report,
)
from eofbounds.cli import (
    SCAN_COLUMNS,
    _cells,
    build_parser,
    main,
    resolve_state_document,
    run_analyze,
)
from eofbounds.entanglement import LN2, entanglement_entropy
from eofbounds.errors import NonPhysicalStateError, ParseError
from eofbounds.geof import _geof_forms
from eofbounds.states import CovMat, Invariants, StandardForm, _standard_forms

from conftest import (
    partial_transpose,
    random_local_symplectic,
    random_standard_form,
    symplectic_spectrum,
    unphysical_matrices,
)

SQ02 = math.sqrt(0.2)
F_SYMMETRIC_EXAMPLE = 0.09960127938888494


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == SCAN_COLUMNS
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def test_resolve_matrix_row_major():
    m = np.diag([1.3, 1.3, 1.7, 1.7])
    m[0, 2] = m[2, 0] = 0.2
    cm = resolve_state_document({"matrix": m.tolist()})
    np.testing.assert_allclose(cm.matrix, m)


def test_resolve_standard_form():
    # The form as written, not rebuilt as a matrix and reduced again.
    sf = resolve_state_document(
        {"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.1}}
    )
    assert sf == StandardForm(1.2, 1.5, 0.3, -0.1)


def test_resolve_invariants_case_insensitive():
    sf = resolve_state_document(
        {"invariants": {"I1": 1.44, "I2": 2.25, "I3": -0.1, "i4": 0.8}}
    )
    assert sf == StandardForm(*_standard_forms(1.44, 2.25, -0.1, 0.8)[0])
    assert (sf.a, sf.b) == pytest.approx((1.2, 1.5))


def test_resolve_requires_exactly_one_representation():
    with pytest.raises(ParseError):
        resolve_state_document({})
    with pytest.raises(ParseError):
        resolve_state_document(
            {"matrix": np.eye(4).tolist(), "standard_form": {"a": 1, "b": 1, "c1": 0, "c2": 0}}
        )


def test_resolve_rejects_bad_matrix():
    with pytest.raises(ParseError):
        resolve_state_document({"matrix": [[1, 2], [3, 4]]})
    with pytest.raises(ParseError):
        resolve_state_document({"matrix": [["x"] * 4] * 4})
    # Strings and booleans are not numbers, as for the other representations.
    for bad in ("1.5", True, None, [1.0]):
        m = np.eye(4).tolist()
        m[3][3] = bad
        with pytest.raises(ParseError):
            resolve_state_document({"matrix": m})
    for bad in ([[1.0] * 4] * 3, [[1.0] * 4] * 3 + [[1.0] * 5], {"0": [1.0] * 4}, [1.0] * 16):
        with pytest.raises(ParseError):
            resolve_state_document({"matrix": bad})


@pytest.mark.parametrize("bad, message", [
    ('"1.5"', "must be a number, got '1.5'"),
    ("true", "must be a number, got True"),
    ("1e999", "must be finite, got inf"),
    ("1" + "0" * 400, "must be finite, got 1" + "0" * 400),
], ids=["string", "boolean", "overflow", "huge-int"])
def test_matrix_entry_error_names_the_first_bad_entry(tmp_path, capsys, bad, message):
    # Integer entries are numbers; the bad entry at [3][3] comes later in
    # row-major order, so only [2][1] is named.
    rows = [["1.0" if i == j else "0" for j in range(4)] for i in range(4)]
    rows[2][1], rows[3][3] = bad, '"x"'
    path = tmp_path / "in.json"
    path.write_text('{"matrix": [%s]}' % ", ".join("[%s]" % ", ".join(row) for row in rows))
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: matrix[2][1] {message}\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_vacuum(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"standard_form": {"a": 1, "b": 1, "c1": 0, "c2": 0}})
    assert main(["analyze", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] is False
    bounds = out["bounds"]
    assert bounds["lower_natural"] == 0.0
    assert bounds["lower_sigma"] == 0.0
    assert bounds["upper_natural"] == 0.0
    assert bounds["eeof"] == 0.0
    assert bounds["geof"] == 0.0


def test_analyze_symmetric_example(tmp_path, capsys):
    doc = {"standard_form": {"a": 1.2, "b": 1.2, "c1": SQ02, "c2": -SQ02}}
    path = write(tmp_path, "in.json", doc)
    assert main(["analyze", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] is True
    assert out["ppt_symplectic_eigenvalues"]["mu_minus"] == pytest.approx(
        1.2 - SQ02, abs=1e-12
    )
    bounds = out["bounds"]
    for key in ("lower_natural", "lower_sigma", "upper_natural", "eeof"):
        assert bounds[key] == pytest.approx(F_SYMMETRIC_EXAMPLE, abs=1e-9)
    assert bounds["geof"] == pytest.approx(F_SYMMETRIC_EXAMPLE, abs=1e-6)
    assert out["bounds"]["flags"]["hierarchy_ok"] is True


def test_analyze_strongly_entangled_spectrum(tmp_path, capsys):
    # Strongly entangled (TMSV, r = 3): the printed spectrum must not cancel.
    ch, sh = math.cosh(6.0), math.sinh(6.0)
    path = write(tmp_path, "in.json", {"standard_form": {"a": ch, "b": ch, "c1": sh, "c2": -sh}})
    assert main(["analyze", "--input", path, "--no-geof"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ppt_symplectic_eigenvalues"]["mu_minus"] == pytest.approx(math.exp(-6.0), rel=1e-9)


def test_analyze_unphysical_exit_code(tmp_path, capsys):
    doc = {"standard_form": {"a": 1, "b": 1, "c1": 0.4, "c2": -0.4}}
    path = write(tmp_path, "in.json", doc)
    assert main(["analyze", "--input", path]) == 3
    err = capsys.readouterr().err
    assert "mu_minus" in err  # the violating eigenvalue is reported


def test_analyze_non_positive_and_subvacuum_matrices_exit_3(tmp_path, capsys):
    for m, message in unphysical_matrices():
        path = write(tmp_path, "in.json", {"matrix": m.tolist()})
        assert main(["analyze", "--input", path]) == 3
        assert capsys.readouterr().err == f"error: unphysical input: {message}\n"


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", "--input", str(path)]) == 2
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2
    assert main(["analyze"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_input_not_utf8_is_unreadable(tmp_path, capsys, command):
    # An input file that is not UTF-8 cannot be read: exit 2, no traceback.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.2\xff}}')
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read input file: ") and "0xff" in err, err


def test_analyze_units_bits(tmp_path, capsys):
    doc = {"standard_form": {"a": 1.2, "b": 1.2, "c1": SQ02, "c2": -SQ02}}
    path = write(tmp_path, "in.json", doc)
    assert main(["analyze", "--input", path, "--units", "bits", "--no-geof"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["units"] == "bits"
    assert out["bounds"]["lower_natural"] == pytest.approx(
        F_SYMMETRIC_EXAMPLE / LN2, abs=1e-9
    )
    assert out["bounds"]["geof"] is None


def test_witness_is_null_without_geof_and_unconverted_in_bits(tmp_path, capsys):
    # The witness (s_a, s_b, r) is dimensionless: bits print it as nats do.
    path = write(tmp_path, "in.json", EXACT_DOCS["matrix"])
    printed = {}
    for flags in ([], ["--units", "bits"], ["--no-geof"], ["--no-geof", "--units", "bits"]):
        assert main(["analyze", "--input", path, *flags]) == 0
        printed[" ".join(flags)] = json.loads(capsys.readouterr().out)["bounds"]["geof_witness"]
    assert list(printed[""]) == ["s_a", "s_b", "r"]
    assert all(isinstance(x, float) for x in printed[""].values())
    assert printed["--units bits"] == printed[""]
    assert printed["--no-geof"] == printed["--no-geof --units bits"] == dict.fromkeys(printed[""])


def recertify_states():
    """Entangled (symmetric and not), separable and pure (TMSV, r <= 3)
    states in random local frames."""
    rng = np.random.default_rng(41)
    states = []
    for i in range(300):
        if i % 4 == 3:
            v = CovMat.two_mode_squeezed(rng.uniform(0.0, 3.0))
        else:
            v = random_standard_form(rng, symmetric=i % 4 == 0, entangled=i % 4 != 2).to_covmat()
        states.append(v.conjugate(random_local_symplectic(rng, 0.3)))
    return states


def test_every_printed_witness_recertifies(tmp_path, capsys):
    # From the printed report alone: G = Gx (+) Gx^-1, rebuilt from
    # geof_witness, is below the printed standard form within the
    # certificate's allowance, and its entanglement is the printed geof.
    path = tmp_path / "in.json"
    for k, v in enumerate(recertify_states()):
        tol = (1e-10, 0.0)[k % 2]
        path.write_text(json.dumps({"matrix": v.matrix.tolist()}))
        assert main(["analyze", "--input", str(path), "--tol-psd", repr(tol)]) == 0
        out = json.loads(capsys.readouterr().out)
        value, (s_a, s_b, r) = out["bounds"]["geof"], out["bounds"]["geof_witness"].values()
        a, b, c1, c2 = out["standard_form"].values()
        # Gx = e^S [[ch, sh], [sh, ch]] e^S with S = diag(s_a, s_b), on (x1, x2).
        ch, sh, e = math.cosh(2 * r), math.sinh(2 * r), np.exp([s_a, s_b])
        g = np.zeros((4, 4))
        g[np.ix_((0, 2), (0, 2))] = np.outer(e, e) * [[ch, sh], [sh, ch]]
        g[np.ix_((1, 3), (1, 3))] = np.array([[ch, -sh], [-sh, ch]]) / np.outer(e, e)
        allowance = tol + 16.0 * np.finfo(float).eps * max(a, b) ** 3
        least = np.linalg.eigvalsh(CovMat.from_standard_form(a, b, c1, c2).matrix - g)[0]
        assert least >= -allowance, (k, least, allowance)
        if value == 0.0:
            assert r == 0.0, k
        else:
            nu = symplectic_spectrum(partial_transpose(g)).mu_minus
            assert math.isclose(entanglement_entropy(nu), value, rel_tol=1e-9), (k, nu, value)


def test_analyze_rejects_negative_tol_psd(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"standard_form": {"a": 1, "b": 1, "c1": 0, "c2": 0}})
    assert main(["analyze", "--input", path, "--tol-psd", "-1"]) == 2
    assert "--tol-psd" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command, flag", [("analyze", "--tol-psd"), ("scan", "--tol-psd")])
def test_rejects_non_finite_or_negative_tolerances(tmp_path, capsys, command, flag, value):
    # A NaN tolerance turns every check it enters off, a negative one fails
    # healthy states, and an infinite --tol-psd rejects every state.
    path = write(tmp_path, "in.json", {"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.2}}
                 if command == "analyze" else {})
    assert main([command, "--input", path, flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_analyze_non_finite_input_exit_code(tmp_path, capsys):
    row = "[1.2, 0, 0.3, 0], [0, 1.2, 0, -0.3], [0.3, 0, 1.5, 0], [0, -0.3, 0, 1.5]"
    texts = [
        '{"matrix": [%s]}' % row.replace("1.2", "NaN", 1),
        '{"matrix": [%s]}' % row.replace("1.5", "Infinity", 1),
        '{"matrix": [%s]}' % row.replace("1.5", "1e999", 1),
        '{"standard_form": {"a": 1.2, "b": -Infinity, "c1": 0, "c2": 0}}',
        '{"invariants": {"I1": 1.44, "I2": 1e999, "I3": 0, "I4": 0}}',
    ]
    for i, text in enumerate(texts):
        path = tmp_path / f"in{i}.json"
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == 2, text
    capsys.readouterr()


def test_analyze_pure_states_at_zero_tol_psd(tmp_path, capsys):
    # A pure state's computed mu_minus falls a rounding error below 1;
    # the physicality test allows that roundoff, not a fixed slack.
    for r in (0.3, 1.0, 2.0):
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        path = write(tmp_path, "in.json", {"standard_form": {"a": ch, "b": ch, "c1": sh, "c2": -sh}})
        assert main(["analyze", "--input", path, "--tol-psd", "0"]) == 0, r
        out = json.loads(capsys.readouterr().out)
        assert out["entangled"] is True
        exact = entanglement_entropy(math.exp(-2 * r))
        for key in ("lower_natural", "lower_sigma", "upper_natural", "eeof"):
            assert out["bounds"][key] == pytest.approx(exact, rel=1e-9), (r, key)


def test_analyze_pure_states_in_squeezed_frames_at_zero_tol_psd(tmp_path, capsys):
    # analyze tests the standard form of a matrix, with the roundoff
    # allowance of its largest entry as given.  Reduced from a strongly
    # squeezed local frame, a pure state's form carries that roundoff and
    # fails the test at its own scale at --tol-psd 0 (the first such draw
    # here is number 435); it must still exit 0.
    rng = np.random.default_rng(0)
    for i in range(450):
        r, squeeze = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.5)
        v = CovMat.two_mode_squeezed(r).conjugate(random_local_symplectic(rng, squeeze))
        path = write(tmp_path, "in.json", {"matrix": v.matrix.tolist()})
        assert main(["analyze", "--input", path, "--tol-psd", "0", "--no-geof"]) == 0, i
    capsys.readouterr()
    # Up to r = 4.5 the invariants reach 1e7, and the roundoff of
    # I4/(a b) - 2|I3| can exceed the 1e-9 slack of the scan's test for a
    # standard form (first at draw 45).  A positive definite matrix always
    # has one, so analyze's report (bound_report) must accept every draw.
    rng = np.random.default_rng(7)
    for i in range(2000):
        r = rng.uniform(0.0, 4.5)
        v = CovMat.two_mode_squeezed(r).conjugate(random_local_symplectic(rng, 1.5))
        report = bound_report(v, include_geof=False)
        assert report.entangled == (r > 0.0), i


def test_analyze_slightly_unphysical_still_rejected(tmp_path, capsys):
    # mu_minus = 1 - 1e-9 stays below the threshold at the default and at
    # zero tolerance, and so does mu_minus = a = sqrt(1 - 1e-9), whether
    # given by its invariants or as a matrix.
    a = 1.3
    c = math.sqrt(a * a - (1.0 - 1e-9) ** 2)
    below = math.sqrt(0.999999999)
    docs = [{"standard_form": {"a": a, "b": a, "c1": c, "c2": -c}},
            {"invariants": {"I1": 0.999999999, "I2": 1, "I3": 0, "I4": 0}},
            {"matrix": np.diag([below, below, 1.0, 1.0]).tolist()}]
    for doc in docs:
        path = write(tmp_path, "in.json", doc)
        for tol in ("1e-10", "0"):
            assert main(["analyze", "--input", path, "--tol-psd", tol]) == 3, (doc, tol)
            assert "mu_minus" in capsys.readouterr().err


def test_analyze_tol_psd_is_frame_invariant(tmp_path, capsys):
    # The vacuum in a locally squeezed frame has a least eigenvalue of
    # 1e-4 < --tol-psd; --tol-psd applies to the standard form's, so it
    # gets the vacuum's report.  States a hair below the vacuum, with
    # mu_minus = min(a, b) = 0.9999, pass the test at --tol-psd 1e-3, and
    # nothing else overrules that verdict; the default rejects them.
    below = ({"matrix": np.diag([0.9999, 0.9999, 1.0, 1.0]).tolist()},
             {"standard_form": {"a": 0.9999, "b": 0.9999, "c1": 0, "c2": 0}})
    reports = []
    for doc in ({"matrix": np.diag([1e4, 1e-4, 1.0, 1.0]).tolist()},
                {"standard_form": {"a": 1, "b": 1, "c1": 0, "c2": 0}}, *below):
        path = write(tmp_path, "in.json", doc)
        assert main(["analyze", "--input", path, "--tol-psd", "1e-3"]) == 0, doc
        reports.append(json.loads(capsys.readouterr().out))
        assert reports[-1]["bounds"]["geof"] == 0.0, doc
        assert reports[-1]["bounds"]["flags"]["hierarchy_ok"], doc
    assert reports[0] == reports[1]
    for doc in below:
        assert main(["analyze", "--input", write(tmp_path, "in.json", doc)]) == 3, doc
        assert "mu_minus = 0.9999 < 1" in capsys.readouterr().err


def test_invariants_below_one_get_the_verdict_of_their_matrix_twin(tmp_path, capsys):
    # I1 = 0.9998 < 1 has the standard form (0.9999.., 1, 0, 0), and the
    # physicality test at --tol-psd alone judges it, as it judges the matrix
    # diag(0.9999, 0.9999, 1, 1); a scan point there is no longer no_state.
    docs = ({"invariants": {"I1": 0.9998, "I2": 1, "I3": 0, "I4": 0}},
            {"matrix": np.diag([0.9999, 0.9999, 1.0, 1.0]).tolist()})
    spec = {"i1": {"min": 0.9998, "max": 0.9998, "steps": 1},
            "i2": {"min": 1.0, "max": 1.0, "steps": 1}, "i3": 0.0, "i4": 0.0}
    out = tmp_path / "out.csv"
    for tol, code in (("0", 3), ("1e-10", 3), ("1e-3", 0)):
        for doc in docs:
            assert main(["analyze", "--input", write(tmp_path, "in.json", doc), "--tol-psd", tol]) == code
            assert ("mu_minus" in capsys.readouterr().err) == (code == 3), (doc, tol)
        assert main(["scan", "--input", write(tmp_path, "scan.json", spec), "--tol-psd", tol,
                     "--output", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["status"] == ("ok" if code == 0 else "unphysical"), tol


def test_analyze_output_file(tmp_path):
    doc = {"standard_form": {"a": 1.2, "b": 1.2, "c1": SQ02, "c2": -SQ02}}
    path = write(tmp_path, "in.json", doc)
    out_path = tmp_path / "report.json"
    assert main(["analyze", "--input", path, "--output", str(out_path), "--no-geof"]) == 0
    report = json.loads(out_path.read_text())
    assert report["standard_form"]["a"] == pytest.approx(1.2)


def test_analyze_unwritable_output_exit_code(tmp_path, capsys):
    doc = {"standard_form": {"a": 1.2, "b": 1.2, "c1": SQ02, "c2": -SQ02}}
    path = write(tmp_path, "in.json", doc)
    out_path = tmp_path / "missing" / "report.json"
    assert main(["analyze", "--input", path, "--output", str(out_path), "--no-geof"]) == 2
    assert "cannot write output file" in capsys.readouterr().err


#: One document of each representation: a general-frame state whose natural
#: upper state is unphysical (from the benchmark's analyze corpus), and the
#: README's entangled standard form and symmetric invariants.
EXACT_DOCS = {
    "matrix": {"matrix": [
        [2.626454027095587, -0.08957472183566736, -0.9980353454457276, -0.2965618259618743],
        [-0.08957472183566736, 2.8503392841294293, 0.8383206445172989, 1.5353633426458961],
        [-0.9980353454457276, 0.8383206445172989, 3.078792757067801, -0.061093751616289424],
        [-0.2965618259618743, 1.5353633426458961, -0.061093751616289424, 1.666449335317192]]},
    "standard-form": {"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.447, "c2": -0.447}},
    "invariants": {"invariants": {"I1": 1.44, "I2": 1.44, "I3": -0.2, "I4": 0.576}},
}
EXACT_FLAGS = {"plain": [], "no-geof": ["--no-geof"], "bits": ["--units", "bits"],
               "tol-psd-0": ["--tol-psd", "0"]}
EXACT_CASES = {f"{d}-{f}": (doc, flags)
               for d, doc in EXACT_DOCS.items() for f, flags in EXACT_FLAGS.items()}
EXACT_CASES["standard-form-violations"] = (EXACT_DOCS["standard-form"], [])

#: analyze's exit code, stdout and stderr for each case, pinned: the JSON,
#: its `flags` object included, changes only on purpose.
ANALYZE_BYTES = json.loads((Path(__file__).parent / "analyze_exact_bytes.json").read_text())

_NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def same_text(got: str, want: str) -> bool:
    """got == want byte for byte, except that a number may move by 1e-12
    relative: numpy's logarithm can differ in its last bit between CPUs."""
    got, want = _NUMBER.split(got), _NUMBER.split(want)
    return len(got) == len(want) and all(
        g == w or (k % 2 == 1 and math.isclose(float(g), float(w), rel_tol=1e-12))
        for k, (g, w) in enumerate(zip(got, want)))


@pytest.mark.parametrize("case", EXACT_CASES)
def test_analyze_exact_bytes(tmp_path, capsys, monkeypatch, case):
    # The whole report, the flags object and the violation strings included.
    # The last case breaks every order against the searched bound, as
    # test_report_violation_strings does, to pin a report with violations.
    doc, flags = EXACT_CASES[case]
    if case.endswith("violations"):
        monkeypatch.setattr("eofbounds.bounds._searched", lambda *args: -1.0)
    code = main(["analyze", "--input", write(tmp_path, "in.json", doc), *flags])
    out = capsys.readouterr()
    want = ANALYZE_BYTES[case]
    assert code == want["exit"]
    assert same_text(out.out, want["stdout"]), out.out
    assert out.err == want["stderr"]


def test_report_layouts_follow_the_rows(tmp_path, capsys):
    # The analyze report's bounds, BoundReport's values and the hierarchy
    # checks name bound rows of the pass, or the searched bound, and the
    # first two list them in table order, the searched bound after the
    # natural one and the GeoF's witness, the pass's last rows, after geof.
    bound_rows = _ROWS[_BOUNDS:_WITNESS]
    allowed = {*bound_rows, "upper_searched", "geof_witness"}
    path = write(tmp_path, "in.json", EXACT_DOCS["standard-form"])
    assert main(["analyze", "--input", path]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    report_keys = [k for k in bounds if k not in ("entangled", "flags")]
    fields = [f.name for f in dataclasses.fields(BoundReport)
              if f.name not in ("entangled", "violations", "standard_form", "invariants",
                                "symplectic_eigenvalues", "ppt_symplectic_eigenvalues")]
    for names in (report_keys, fields):
        assert set(names) == allowed, names
        rows = [n for n in names if n not in ("upper_searched", "geof_witness")]
        assert rows == list(bound_rows), names
        assert names.index("upper_searched") == names.index("upper_natural") + 1, names
        assert names.index("geof_witness") == names.index("geof") + 1, names
    assert ["geof_" + k for k in bounds["geof_witness"]] == list(_ROWS[_WITNESS:])
    assert {name for lo, hi, _ in _ORDER for name in (lo, hi)} <= allowed - {"geof_witness"}


#: An entangled state of the analyze corpus whose searched line has no
#: feasible node (its natural upper state is unphysical too).
NO_SEARCHED_NODE = StandardForm(1.8897284129522964, 2.1608410473115596, 1.6434792741162767,
                                -0.9286050470785248)


def test_no_feasible_searched_node_is_not_available(tmp_path, capsys):
    assert bound_report(NO_SEARCHED_NODE).upper_searched is None
    path = write(tmp_path, "in.json", {"standard_form": dataclasses.asdict(NO_SEARCHED_NODE)})
    assert main(["analyze", "--input", path]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert bounds["upper_searched"] is None and bounds["flags"]["searched_feasible"] is False
    assert bounds["upper_natural"] is None and bounds["geof"] is not None
    assert bounds["flags"]["hierarchy_ok"] is True
    assert not any("upper_searched" in v for v in bounds["flags"]["violations"])


def test_every_witness_rejected_is_not_available(tmp_path, capsys, monkeypatch):
    # A GeoF search whose certificate fails every witness: the search gives
    # NaN after as many evaluations, and the report, its printed witness
    # and the scan show no value.
    v = CovMat.from_standard_form(1.2, 1.5, 0.447, -0.447)
    form = tuple(bound_report(v).standard_form)
    value, _, evals = _geof_forms(*form)
    monkeypatch.setattr("eofbounds.geof._certified", lambda a, *args: np.zeros(np.shape(a), dtype=bool))
    rejected, _, rejected_evals = _geof_forms(*form)
    assert not np.isnan(value[0]) and np.isnan(rejected[0]) and rejected_evals[0] == evals[0]
    rep = bound_report(v)
    assert rep.geof is None and rep.geof_witness is None
    path = write(tmp_path, "in.json", {"matrix": v.matrix.tolist()})
    assert main(["analyze", "--input", path]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert bounds["geof"] is None and bounds["flags"]["geof_feasible"] is False
    assert bounds["geof_witness"] == {"s_a": None, "s_b": None, "r": None}
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", write(tmp_path, "scan.json", scan_spec(steps=4)),
                 "--output", str(out)]) == 0
    rows = [row for row in read_rows(out) if row["status"] == "ok"]
    assert rows and all(row["geof"] == "" for row in rows)


#: A standard form without StandardForm's checks, so that its entries may be NaN.
Form = namedtuple("Form", "a b c1 c2")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_analyze_report_is_json_dumps_of_its_values(data):
    # Every leaf drawn on its own, NaN and +-inf included, so that a slot
    # filled out of order, or a token json.dumps would write otherwise, fails.
    floats = st.lists(st.floats(), min_size=4, max_size=4)
    inv, sf, spectra = data.draw(floats), data.draw(floats), data.draw(floats)
    values = data.draw(st.lists(st.none() | st.floats(), min_size=6, max_size=6))
    witness = data.draw(st.none() | st.tuples(st.floats(), st.floats(), st.floats()))
    entangled, no_geof = data.draw(st.booleans()), data.draw(st.booleans())
    violations = data.draw(st.lists(st.text(), max_size=3))
    units = data.draw(st.sampled_from(["nats", "bits"]))
    report = BoundReport(*values, geof_witness=witness, entangled=entangled,
                         violations=tuple(violations),
                         standard_form=Form(*sf), invariants=Invariants(*inv),
                         symplectic_eigenvalues=tuple(spectra[:2]),
                         ppt_symplectic_eigenvalues=tuple(spectra[2:]))
    args = argparse.Namespace(input="in.json", output=None, tol_psd=1e-10, units=units,
                              no_geof=no_geof)
    with patch.multiple("eofbounds.cli", _load_document=lambda path: {},
                        resolve_state_document=lambda doc: CovMat(np.eye(4)),
                        bound_report=lambda *a: report), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        run_analyze(args)

    names = ("lower_natural", "lower_sigma", "upper_natural", "upper_searched", "eeof", "geof")
    convert = (lambda x: x) if units == "nats" else (lambda x: None if x is None else x / LN2)
    want = {
        "units": units,
        "invariants": dict(zip(("I1", "I2", "I3", "I4"), inv)),
        "standard_form": dict(zip(("a", "b", "c1", "c2"), sf)),
        "symplectic_eigenvalues": {"mu_minus": spectra[0], "mu_plus": spectra[1]},
        "ppt_symplectic_eigenvalues": {"mu_minus": spectra[2], "mu_plus": spectra[3]},
        "entangled": entangled,
        "bounds": {
            **{k: convert(x) for k, x in zip(names, values)},
            "geof_witness": dict(zip(("s_a", "s_b", "r"), witness or (None,) * 3)),
            "entangled": entangled,
            "flags": {
                "upper_natural_physical": values[2] is not None,
                "searched_feasible": values[3] is not None,
                "geof_feasible": None if no_geof else values[5] is not None,
                "hierarchy_ok": not violations,
                "violations": violations,
            },
        },
    }
    assert out.getvalue() == json.dumps(want, indent=2) + "\n"


#: The report's bound values, by name, as the analyze JSON prints them.
BOUND_NAMES = ("lower_natural", "lower_sigma", "upper_natural", "upper_searched", "eeof", "geof")


def printed_fields(out: dict) -> dict:
    """BoundReport's fields, by name, as an analyze report in nats prints them."""
    bounds = out["bounds"]
    return {
        **{name: tuple(out[name].values()) for name in (
            "invariants", "standard_form", "symplectic_eigenvalues", "ppt_symplectic_eigenvalues")},
        **{name: bounds[name] for name in BOUND_NAMES},
        "geof_witness": (None if set(bounds["geof_witness"].values()) == {None}
                         else tuple(bounds["geof_witness"].values())),
        "entangled": out["entangled"],
        "violations": tuple(bounds["flags"]["violations"]),
    }


@pytest.mark.parametrize("kind", EXACT_DOCS)
def test_analyze_prints_bound_report(tmp_path, capsys, kind):
    # One path from a document to its report: every field of
    # bound_report(state) is printed, as it is, for each document kind.
    doc = EXACT_DOCS[kind]
    assert main(["analyze", "--input", write(tmp_path, "in.json", doc)]) == 0
    printed = printed_fields(json.loads(capsys.readouterr().out))
    report = bound_report(resolve_state_document(doc))
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(BoundReport)}
    assert printed.keys() == fields.keys()
    for name, value in fields.items():
        assert printed[name] == (tuple(value) if isinstance(value, (Invariants, StandardForm))
                                 else value), name


def test_violation_strings_are_in_nats_under_bits(tmp_path, capsys, monkeypatch):
    # --units converts the bound values, not the violation strings, which
    # give the values bound_report compared.
    monkeypatch.setattr("eofbounds.bounds._searched", lambda *args: -1.0)
    path = write(tmp_path, "in.json", EXACT_DOCS["standard-form"])
    reports = []
    for units in ("nats", "bits"):
        assert main(["analyze", "--input", path, "--units", units]) == 0
        reports.append(json.loads(capsys.readouterr().out)["bounds"])
    nats, bits = reports
    assert bits["upper_searched"] == -1.0 / LN2 and nats["upper_searched"] == -1.0
    assert nats["flags"]["violations"] and bits["flags"]["violations"] == nats["flags"]["violations"]
    assert all(v.endswith(" > -1 + 1e-09") or v.endswith(" > -1 + 1e-06")
               for v in bits["flags"]["violations"])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the physicality allowance 16 eps s^2 passes 1 "
                          "once the largest entry s exceeds about 1.7e7")
def test_sub_vacuum_states_with_a_huge_entry_are_rejected(tmp_path, capsys):
    # A sub-vacuum mode (a = 0.5) beside a thermal one of 1e9 is unphysical
    # in either representation.
    for doc in ({"standard_form": {"a": 0.5, "b": 1e9, "c1": 0, "c2": 0}},
                {"matrix": np.diag([0.5, 0.5, 1e9, 1e9]).tolist()}):
        path = write(tmp_path, "in.json", doc)
        for flags in ([], ["--no-geof"]):
            assert main(["analyze", "--input", path, *flags]) == 3, (doc, flags)
            capsys.readouterr()
        with pytest.raises(NonPhysicalStateError):
            bound_report(resolve_state_document(doc))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the spectra of a huge standard form overflow "
                          "to inf, which the report prints as Infinity")
def test_huge_standard_form_report_is_strict_json(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"standard_form": {"a": 1e100, "b": 1e100, "c1": 1, "c2": 0}})
    assert main(["analyze", "--input", path]) == 0
    constants = []  # NaN, Infinity and -Infinity, which strict JSON has not
    json.loads(capsys.readouterr().out, parse_constant=constants.append)
    assert not constants, constants


@pytest.mark.parametrize("c1", [1, 0])
def test_huge_standard_forms_print_the_same_report_under_warnings_as_errors(tmp_path, capsys, c1):
    # The product witness's discriminant overflows on these forms; that is
    # no warning, so `python -W error` prints what a plain run prints.
    path = write(tmp_path, "in.json", {"standard_form": {"a": 1e100, "b": 1e100, "c1": c1, "c2": 0}})
    assert main(["analyze", "--input", path]) == 0
    plain = capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", path]) == 0
    assert capsys.readouterr().out == plain.out
    assert plain.err == ""


@pytest.mark.parametrize("tol", ["0", "1e-10", "1e-3"])
def test_overflowing_invariants_exit_3_without_warnings(tmp_path, capsys, tol):
    # A subnormal I1 or a huge I4 overflows s^2 in the standard-form solver;
    # that is no warning, so `python -W error` still gets the documented exit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inv, message in (({"I1": 1e-320, "I2": 1, "I3": 0, "I4": 1}, "non-finite entries"),
                             ({"I1": 1, "I2": 1, "I3": 0, "I4": 1e200}, "non-finite entries"),
                             ({"I1": 1e300, "I2": 1e300, "I3": 1e300, "I4": 1e300},
                              "no standard form")):
            path = write(tmp_path, "in.json", {"invariants": inv})
            assert main(["analyze", "--input", path, "--tol-psd", tol]) == 3, inv
            assert message in capsys.readouterr().err
        # A standard form whose products overflow is judged, not raised on.
        path = write(tmp_path, "in.json",
                     {"standard_form": {"a": 1e300, "b": 2e300, "c1": 1e300, "c2": -5e299}})
        assert main(["analyze", "--input", path, "--tol-psd", tol]) == 3
        assert capsys.readouterr().err.startswith("error: unphysical input: ")
        out = tmp_path / "out.csv"
        spec = write(tmp_path, "scan.json", scan_spec(steps=2, i4=1e200))
        assert main(["scan", "--input", spec, "--tol-psd", tol, "--output", str(out)]) == 0
    assert [row["status"] for row in read_rows(out)] == ["unphysical"] * 4


@pytest.mark.parametrize("doc", [
    {"matrix": np.diag([1e308, 1e308, 1.0, 1.0]).tolist()},
    {"matrix": [[1e308, 1.7e308, 0, 0], [1.7e308, 1e308, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"standard_form": {"a": 1e308, "b": 1e308, "c1": 0, "c2": 0}},
], ids=["diagonal", "off-diagonal", "standard-form"])
def test_huge_finite_entries_exit_3_without_warnings(tmp_path, capsys, doc):
    # Entries above about 9e307 are finite, but their sum is not: symmetrizing
    # the matrix must not overflow, so `python -W error` gets the verdict too.
    path = write(tmp_path, "in.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", path]) == 3
    assert capsys.readouterr().err.startswith("error: unphysical input: ")


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("doc, markers", [
    ({"i1": {"min": 1, "max": 1e300, "steps": 3}, "i2": {"min": 1, "max": 1e300, "steps": 3}},
     (",ok\n", ",unphysical\n")),
    ({"i1": {"min": -1, "max": 1, "steps": 3}}, (",no_state\n",)),
], ids=["huge", "negative"])
def test_scan_huge_axes_print_the_same_csv_under_warnings_as_errors(tmp_path, capsys, doc, markers):
    # I1 I2 overflows in the correlated I4 rule and the GeoF search meets
    # inf and 0 on such states; a negative I1 I2 has no square root in that
    # rule, and no state.  None of it is a warning.
    spec = write(tmp_path, "scan.json", doc)
    assert main(["scan", "--input", spec]) == 0
    plain = capsys.readouterr().out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", "--input", spec]) == 0
    assert capsys.readouterr().out == plain
    assert all(marker in plain for marker in markers)


def scan_spec(steps=4, i3=-0.2, **extra):
    spec = {
        "i1": {"min": 1.0, "max": 4.0, "steps": steps},
        "i2": {"min": 1.0, "max": 4.0, "steps": steps},
        "i3": i3,
    }
    spec.update(extra)
    return spec


def test_scan_header_and_grid_order(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=3))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out), "--no-geof"]) == 0
    rows = read_rows(out)
    assert len(rows) == 9
    i1s = [float(r["I1"]) for r in rows]
    assert i1s == sorted(i1s)  # outer loop over I1
    # every row carries either values or an explicit skip marker
    assert all(r["status"] in ("ok", "unphysical", "no_state") for r in rows)
    assert any(r["status"] == "unphysical" for r in rows)


def test_scan_zero_i3_all_separable(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=4, i3=0.0, i4=0.0))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out)]) == 0
    for row in read_rows(out):
        if row["status"] != "ok":
            continue
        assert row["entangled"] == "false"
        for col in ("eof_lower_natural", "eof_sigma", "geof", "eeof"):
            assert float(row[col]) == 0.0


def test_scan_diagonal_symmetric_agreement(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=5))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out)]) == 0
    for row in read_rows(out):
        if row["status"] != "ok" or row["I1"] != row["I2"]:
            continue
        values = [float(row[c]) for c in ("eof_lower_natural", "eof_sigma", "geof", "eeof", "eof_upper_natural")]
        assert max(values) - min(values) < 1e-6


def test_scan_rows_respect_hierarchy(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=5))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out)]) == 0
    for row in read_rows(out):
        if row["status"] != "ok":
            assert row["status"] in ("unphysical", "no_state")
            continue
        lower = float(row["eof_lower_natural"])
        sigma = float(row["eof_sigma"])
        g = float(row["geof"])
        assert lower <= sigma + 1e-9
        assert sigma <= g + 1e-6
        if row["physical_upper_flag"] == "true":
            assert g <= float(row["eof_upper_natural"]) + 1e-6


def test_scan_deterministic_output(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=4))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--input", path, "--output", str(out1)]) == 0
    assert main(["scan", "--input", path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_no_geof_leaves_column_empty(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=3))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out), "--no-geof"]) == 0
    for row in read_rows(out):
        assert row["geof"] == ""


def test_scan_geof_toggle_in_spec(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=3, geof=False))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out)]) == 0
    assert all(r["geof"] == "" for r in read_rows(out))


def test_scan_literal_i4(tmp_path):
    path = write(tmp_path, "scan.json", scan_spec(steps=3, i4=0.6))
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out), "--no-geof"]) == 0
    assert all(float(r["I4"]) == 0.6 for r in read_rows(out))


def test_scan_rejects_unknown_keys(tmp_path, capsys):
    path = write(tmp_path, "scan.json", scan_spec(steps=3, bogus=1))
    assert main(["scan", "--input", path]) == 2
    capsys.readouterr()


SF = {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.2}
INV = {"I1": 1.44, "I2": 1.44, "I3": -0.2, "I4": 0.576}


@pytest.mark.parametrize("command, doc, message", [
    ("analyze", {"standard_form": SF, "units": "bits"}, "unknown document keys: ['units']"),
    ("analyze", {"standard_form": {**SF, "C2": 0.25}}, "unknown standard_form keys: ['C2']"),
    ("analyze", {"invariants": {**INV, "I5": 1.0}}, "unknown invariants keys: ['i5']"),
    ("analyze", {"invariants": {**INV, "i1": 4.0}},
     "invariants keys differ only in case: ['I1', 'i1']"),
    ("scan", {"i1": {"min": 1, "max": 2, "stpes": 5}, "i2": {"min": 1, "max": 2, "steps": 2}},
     "unknown i1 keys: ['stpes']"),
    ("scan", {"i2": {"min": 1, "max": 2, "step": 5}}, "unknown i2 keys: ['step']"),
    ("scan", {"I1": {"min": 1, "max": 2, "steps": 2}, "i1": {"min": 1, "max": 3, "steps": 3}},
     "scan keys differ only in case: ['I1', 'i1']"),
], ids=["analyze-top", "standard_form", "invariants", "invariants-case", "axis-typo", "axis-i2",
        "scan-case"])
def test_unknown_or_case_colliding_keys_exit_2(tmp_path, capsys, command, doc, message):
    # No key is dropped or overwritten silently: a typo would fall back to a
    # default, and of two keys that lower-case alike only the later would count.
    assert main([command, "--input", write(tmp_path, "doc.json", doc)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


MATRIX = json.dumps([[1.2, 0, 0.3, 0], [0, 1.2, 0, -0.2], [0.3, 0, 1.5, 0], [0, -0.2, 0, 1.5]])
AXIS = json.dumps({"min": 1, "max": 2, "steps": 2})


@pytest.mark.parametrize("command, text, repeated", [
    ("analyze", '{"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.2, "a": 2.0}}', "a"),
    ("analyze", '{"matrix": %s, "matrix": %s}' % (MATRIX, MATRIX), "matrix"),
    ("scan", '{"i1": %s, "i2": %s, "i1": %s}' % (AXIS, AXIS, AXIS), "i1"),
], ids=["standard_form", "matrix", "scan-axis"])
def test_duplicate_keys_exit_2(tmp_path, capsys, command, text, repeated):
    # The decoder would keep the later value of a repeated key, even an equal one.
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: duplicate keys in input JSON: ['{repeated}']\n")


def test_scan_mixed_case_keys_without_collision(tmp_path, capsys):
    # Keys that lower-case to distinct names are accepted in any case.
    doc = {"I1": {"min": 1, "max": 2, "steps": 2}, "i2": {"min": 1, "max": 2, "steps": 3},
           "I3": 0.1}
    assert main(["scan", "--input", write(tmp_path, "scan.json", doc), "--no-geof"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [row.split(",")[:3] for row in rows[:3]] == [["1", "1", "0.1"], ["1", "1.5", "0.1"],
                                                        ["1", "2", "0.1"]]
    assert len(rows) == 6


def test_scan_huge_steps_exit_2(tmp_path, capsys):
    # More steps than numpy can allocate: a parse error naming the axis.
    doc = {"i1": {"min": 1, "max": 2, "steps": 10**30}}
    assert main(["scan", "--input", write(tmp_path, "scan.json", doc)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: i1.steps is too large: ")


def test_scan_axis_whose_span_overflows_exits_2(tmp_path, capsys):
    # Both ends are finite, but max - min is not: no grid to print.
    doc = {"i1": {"min": -1e308, "max": 1e308, "steps": 1}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", "--input", write(tmp_path, "scan.json", doc)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: i1: max - min overflows\n"


@pytest.mark.parametrize("text, message", [
    ('{"i1": {"steps": 1%s}}' % ("0" * 5000), "Exceeds the limit (4300 digits)"),
    ('{"matrix": %s%s}' % ("[" * 100_000, "]" * 100_000), "maximum recursion depth exceeded"),
], ids=["int-over-4300-digits", "nested-100000-deep"])
@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_json_the_decoder_raises_on_is_invalid(tmp_path, capsys, command, text, message):
    # The decoder raises a plain ValueError or a RecursionError for these,
    # not a JSONDecodeError.
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: invalid JSON in {path}: {message}")


def test_scan_rejects_bad_i4_rule(tmp_path, capsys):
    path = write(tmp_path, "scan.json", scan_spec(steps=3, i4="cubic"))
    assert main(["scan", "--input", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("i4", ["2|I3|sqrt(I1*I2)", "natural", "2|I3|sqrt(I1 I2)", ""])
def test_scan_i4_rule_has_one_spelling(tmp_path, capsys, i4):
    # The documented spelling is the default grid's rule; every other
    # string is a parse error that names it.
    path = write(tmp_path, "scan.json", {"i4": i4})
    code = main(["scan", "--input", path])
    out = capsys.readouterr()
    if i4 == "2|I3|sqrt(I1*I2)":
        assert code == 0 and out.err == ""
        assert main(["scan"]) == 0
        assert capsys.readouterr().out == out.out
    else:
        assert code == 2 and out.out == ""
        assert out.err == f"error: i4 must be a number or '2|I3|sqrt(I1*I2)', got {i4!r}\n"


def test_scan_default_spec_runs(tmp_path):
    # No input: Fig-1-style defaults, 40x40; trimmed here via a spec file
    # to keep runtime small, so just check the default axes parse.
    from eofbounds.cli import build_parser, _parse_scan_spec

    args = build_parser().parse_args(["scan", "--no-geof"])
    spec = _parse_scan_spec(args)
    assert len(spec["i1"]) == 40 and len(spec["i2"]) == 40
    assert spec["i3"] == -0.2
    assert spec["i4_literal"] is None
    assert spec["geof"] is False  # --no-geof wins


@pytest.mark.parametrize("spec", [
    {},  # the README default grid, 40x40
    scan_spec(steps=30, i3=-0.2, i4=1.5),  # every status and flag combination
])
def test_scan_matches_per_point_report(tmp_path, spec):
    # The scan evaluates its grid in one pass; each row must print what
    # bound_report gives for the standard form `_standard_forms` solves at
    # that grid point, digit for digit.
    path = write(tmp_path, "scan.json", spec)
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out), "--no-geof"]) == 0
    rows = read_rows(out)
    axis = lambda key: np.linspace(spec.get(key, {}).get("min", 1.0), spec.get(key, {}).get("max", 4.0),
                                   spec.get(key, {}).get("steps", 40))
    i3 = spec.get("i3", -0.2)
    points = [(i1, i2) for i1 in axis("i1") for i2 in axis("i2")]
    assert len(rows) == len(points)
    statuses = set()
    for row, (i1, i2) in zip(rows, points):
        i4 = spec.get("i4", 2.0 * abs(i3) * math.sqrt(i1 * i2))
        expected = {c: "" for c in SCAN_COLUMNS[4:]}
        form, solved = _standard_forms(i1, i2, i3, i4)
        if not solved:
            expected["status"] = "no_state"
        else:
            try:
                rep = bound_report(StandardForm(*form), include_geof=False)
            except NonPhysicalStateError:
                expected["status"] = "unphysical"
            else:
                expected.update({
                    "entangled": "true" if rep.entangled else "false",
                    "eof_lower_natural": rep.lower_natural,
                    "eof_sigma": rep.lower_sigma,
                    "eeof": rep.eeof,
                    "eof_upper_natural": "" if rep.upper_natural is None else rep.upper_natural,
                    "physical_upper_flag": "false" if rep.upper_natural is None else "true",
                    "status": "ok",
                })
                matrix = rep.standard_form.to_covmat().matrix
                nu_t = symplectic_spectrum(partial_transpose(matrix)).mu_minus
                assert float(row["mu_tilde_minus"]) == pytest.approx(nu_t, rel=1e-9)
        statuses.add(expected["status"])
        for col, want in expected.items():
            if col != "mu_tilde_minus":
                want = format(want, ".12g") if isinstance(want, float) else want
                assert row[col] == want, (i1, i2, col)
    assert "ok" in statuses


def test_scan_geof_matches_per_point_geof(tmp_path):
    # The scan searches all its ok points at once; each geof cell must
    # print what bound_report gives for the standard form `_standard_forms`
    # solves at that grid point, digit for digit.
    path = write(tmp_path, "scan.json", {})  # the README default grid, 40x40
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out)]) == 0
    rows = read_rows(out)
    axis = np.linspace(1.0, 4.0, 40)
    points = [(i1, i2) for i1 in axis for i2 in axis]
    assert len(rows) == len(points)
    searched = 0
    for row, (i1, i2) in zip(rows, points):
        if row["status"] != "ok":
            assert row["geof"] == "", (i1, i2)
            continue
        form, solved = _standard_forms(i1, i2, -0.2, 2.0 * 0.2 * math.sqrt(i1 * i2))
        assert solved, (i1, i2)
        value = bound_report(StandardForm(*form)).geof
        assert row["geof"] == ("" if value is None else format(value, ".12g")), (i1, i2)
        searched += value is not None
    assert searched > 1000


def test_scan_invariants_below_one_unphysical(tmp_path):
    spec = {"i1": {"min": 0.999999999, "max": 0.999999999, "steps": 1},
            "i2": {"min": 2.0, "max": 2.0, "steps": 1}, "i3": 0.0, "i4": 0.0}
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", write(tmp_path, "scan.json", spec), "--output", str(out)]) == 0
    (row,) = read_rows(out)
    assert row["status"] == "unphysical"
    assert row["geof"] == row["eof_sigma"] == ""


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_no_command_takes_hierarchy_slacks(tmp_path, capsys, command):
    # The slacks of the hierarchy checks are fixed; both commands share one
    # option set, and an unknown option is a parse error.
    path = write(tmp_path, "in.json", {"standard_form": {"a": 1.2, "b": 1.5, "c1": 0.3, "c2": -0.2}}
                 if command == "analyze" else {})
    for flag in ("--tol-bound", "--geof-tol"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", path, "--no-geof", flag, "1e-9"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_help_names_both_commands_and_every_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in ("analyze", "scan", "--input", "--output", "--tol-psd", "--units", "--no-geof"):
        assert word in out, word


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--no-geof"], "the following arguments are required: command"),
    (["fit"], "argument command: invalid choice: 'fit'"),
])
def test_missing_or_unknown_command_is_a_parse_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: eofbounds") and f"eofbounds: error: {message}" in err, err


def test_scan_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main(["scan", "--no-geof", "--output", str(out)]) == 2
    assert "cannot write output file" in capsys.readouterr().err


def reference_cell(x) -> str:
    """The scan CSV's rule for one cell, applied cell by cell."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return format(x, ".12g")


def reference_scan_csv(spec: dict, with_geof: bool, units: str) -> bytes:
    """The scan CSV of `spec`, built row by row from the closed-form arrays."""
    axis = lambda key: np.linspace(spec.get(key, {}).get("min", 1.0), spec.get(key, {}).get("max", 4.0),
                                   spec.get(key, {}).get("steps", 40))
    i1, i2 = (x.ravel() for x in np.meshgrid(axis("i1"), axis("i2"), indexing="ij"))
    i3 = np.full_like(i1, spec.get("i3", -0.2))
    i4 = (2.0 * abs(spec.get("i3", -0.2)) * np.sqrt(i1 * i2) if "i4" not in spec
          else np.full_like(i1, spec["i4"]))
    forms, solved = _standard_forms(i1, i2, i3, i4)
    forms = np.where(solved, forms, np.nan)
    ok, entangled, table = _standard_bounds(*forms)
    res = dict(zip(_ROWS, table))
    g = np.full_like(i1, np.nan)
    if with_geof:
        g[ok] = _geof_forms(*(x[ok] for x in forms))[0]
    entropy = lambda x: x / LN2 if units == "bits" else x
    lines = [",".join(SCAN_COLUMNS)]
    for k in range(len(i1)):
        shown = bool(ok[k])
        upper_physical = not math.isnan(res["upper_natural"][k])
        if shown:
            status = "ok"
        else:
            status = "no_state" if math.isnan(forms[0][k]) else "unphysical"
        row = [
            float(i1[k]), float(i2[k]), float(i3[k]), float(i4[k]),
            None if math.isnan(res["nu_t"][k]) else float(res["nu_t"][k]),
            bool(entangled[k]) if shown else None,
            float(entropy(res["lower_natural"][k])) if shown else None,
            float(entropy(res["lower_sigma"][k])) if shown else None,
            None if math.isnan(g[k]) else float(entropy(g[k])),
            float(entropy(res["eeof"][k])) if shown else None,
            float(entropy(res["upper_natural"][k])) if shown and upper_physical else None,
            upper_physical if shown else None,
            status,
        ]
        lines.append(",".join(map(reference_cell, row)))
    return ("\n".join(lines) + "\n").encode()


#: Cells at the edges of formatting: signed zeros, subnormals, the ends of
#: the float range and the values run_scan prints most.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
               -1.7976931348623157e308, 1.0, 0.1, 0.0568428962343, math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cells_match_reference_cell(data):
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12))
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(EDGE_VALUES), st.floats(), st.floats(-1e-300, 1e-300),
        st.floats(1e295, 1e305), st.floats(-1e305, -1e295))))
    shown = data.draw(hnp.arrays(np.bool_, shape))
    want = [[reference_cell(x if s else None) for x, s in zip(row, mask)]
            for row, mask in zip(values.tolist(), shown.tolist())]
    assert _cells(values, shown) == want


@pytest.mark.parametrize("spec, flags, marker", [
    ({}, [], b",ok\n"),  # the README default grid, 40x40, with geof
    (scan_spec(steps=30, i4=1.5), ["--no-geof"], b",unphysical\n"),
    (scan_spec(steps=30, i4=1.5), ["--no-geof", "--units", "bits"], b",unphysical\n"),
    ({"i1": {"min": 0.5, "max": 4.0, "steps": 8}, "i2": {"min": 1.0, "max": 4.0, "steps": 7}, "i4": 1.2},
     [], b",no_state\n"),
    (scan_spec(steps=5, i3=-0.0, i4=-0.0), [], b",-0,-0,"),
    # The shapes of the benchmark's calls: an I1 row of the 200x200 grid
    # without geof, and a tile of 4 points with it.
    ({"i1": {"min": 1.6, "max": 1.6, "steps": 1}, "i2": {"min": 1.0, "max": 4.0, "steps": 200}},
     ["--no-geof"], b",false,0,0,,0,"),
    ({"i1": {"min": 1.6, "max": 1.6, "steps": 1}, "i2": {"min": 1.0, "max": 2.2, "steps": 4}},
     [], b",true,0,"),
    # Axes and I4 in exponent form: those columns skip _cells and its zero shortcut.
    ({"i1": {"min": 1e-9, "max": 1e20, "steps": 3}, "i2": {"min": 1e-9, "max": 1e20, "steps": 3}},
     ["--no-geof"], b"\n1e+20,1e-09,-0.2,126491.106407,"),
], ids=["readme-grid", "literal-i4-nats", "literal-i4-bits", "no-state", "negative-zero", "row-200",
        "tile-4", "exponent-axes"])
def test_scan_exact_bytes(tmp_path, capsys, spec, flags, marker):
    path = write(tmp_path, "scan.json", spec)
    out = tmp_path / "out.csv"
    assert main(["scan", "--input", path, "--output", str(out), *flags]) == 0
    units = "bits" if "bits" in flags else "nats"
    want = reference_scan_csv(spec, "--no-geof" not in flags, units)
    assert marker in want
    assert out.read_bytes() == want
    capsys.readouterr()
    assert main(["scan", "--input", path, *flags]) == 0
    assert capsys.readouterr().out.encode() == want


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    # The parser is built once per process; flags of one call must not
    # carry over into the next.
    assert build_parser() is build_parser()
    doc = {"standard_form": {"a": 1.2, "b": 1.2, "c1": SQ02, "c2": -SQ02}}
    path = write(tmp_path, "in.json", doc)
    assert main(["analyze", "--input", path, "--no-geof"]) == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["geof"] is None
    assert main(["analyze", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["geof"] == pytest.approx(F_SYMMETRIC_EXAMPLE, abs=1e-6)

    spec = write(tmp_path, "scan.json", scan_spec(steps=4, i3=-0.5))
    bits, nats = tmp_path / "bits.csv", tmp_path / "nats.csv"
    assert main(["scan", "--input", spec, "--output", str(bits), "--units", "bits"]) == 0
    assert main(["scan", "--input", spec, "--output", str(nats)]) == 0
    checked = 0
    for b, n in zip(read_rows(bits), read_rows(nats)):
        assert n["geof"] != "" or n["status"] != "ok"  # the second scan ran geof
        if n["status"] == "ok" and float(n["eof_sigma"]) > 0.0:
            assert float(n["eof_sigma"]) == pytest.approx(float(b["eof_sigma"]) * LN2, rel=1e-11)
            checked += 1
    assert checked > 0
