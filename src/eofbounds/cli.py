"""Command-line interface: single-state reports and invariant-grid scans.

Exit codes: 0 success, 2 parse error or an unreadable input or unwritable
output file, 3 unphysical input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .bounds import BoundReport, _checked, _report, _standard_bounds
from .entanglement import LN2
from .errors import (
    DegenerateInvariantsError,
    DomainError,
    NonPhysicalStateError,
    NonPositiveMatrixError,
    ParseError,
)
from .geof import _geof_forms
from .states import (
    CovMat,
    Invariants,
    _standard_forms,
    invariants,
    standard_form_from_invariants,
)

#: Fixed column order of scan output.
SCAN_COLUMNS = [
    "I1",
    "I2",
    "I3",
    "I4",
    "mu_tilde_minus",
    "entangled",
    "eof_lower_natural",
    "eof_sigma",
    "geof",
    "eeof",
    "eof_upper_natural",
    "physical_upper_flag",
    "status",
]

#: Accepted spellings of the correlated I4 rule used in grid scans.
I4_RULE_STRINGS = {"2|I3|sqrt(I1*I2)", "natural"}


#: Format of every number in scan output.
_FLOAT = ".12g"


def _formatted(values: np.ndarray) -> list[str]:
    # format() with a repeated spec is about twice as fast as "{:.12g}".format.
    return list(map(format, values.tolist(), itertools.repeat(_FLOAT)))


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} in input JSON")


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    return doc


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{what} must be finite, got {value!r}")
    return x


def resolve_state_document(doc: dict) -> CovMat:
    """Build a covariance matrix from one of the three representations."""
    keys = {"matrix", "standard_form", "invariants"} & set(doc)
    if len(keys) != 1:
        raise ParseError(
            "document must contain exactly one of 'matrix', 'standard_form', "
            f"'invariants'; found {sorted(keys) or 'none'}"
        )
    key = keys.pop()
    body = doc[key]
    if key == "matrix":
        if not (isinstance(body, list) and len(body) == 4
                and all(isinstance(row, list) and len(row) == 4 for row in body)):
            raise ParseError("matrix must be a 4x4 list of rows (row-major)")
        return CovMat(np.array([[_as_float(x, f"matrix[{i}][{j}]") for j, x in enumerate(row)]
                                for i, row in enumerate(body)]))
    if not isinstance(body, dict):
        raise ParseError(f"'{key}' must be an object")
    if key == "standard_form":
        missing = {"a", "b", "c1", "c2"} - set(body)
        if missing:
            raise ParseError(f"standard_form missing keys: {sorted(missing)}")
        return CovMat.from_standard_form(
            _as_float(body["a"], "a"),
            _as_float(body["b"], "b"),
            _as_float(body["c1"], "c1"),
            _as_float(body["c2"], "c2"),
        )
    body = {str(k).lower(): v for k, v in body.items()}
    missing = {"i1", "i2", "i3", "i4"} - set(body)
    if missing:
        raise ParseError(f"invariants missing keys: {sorted(k.upper() for k in missing)}")
    inv = Invariants(*(_as_float(body[k], k.upper()) for k in ("i1", "i2", "i3", "i4")))
    return standard_form_from_invariants(inv).to_covmat()


def _convert(value: float | None, units: str) -> float | None:
    if value is None or units == "nats":
        return value
    return value / LN2


def _report_dict(report: BoundReport, units: str) -> dict:
    return {
        "lower_natural": _convert(report.lower_natural, units),
        "lower_sigma": _convert(report.lower_sigma, units),
        "upper_natural": _convert(report.upper_natural, units),
        "upper_searched": _convert(report.upper_searched, units),
        "eeof": _convert(report.eeof, units),
        "geof": _convert(report.geof, units),
        "entangled": report.entangled,
        "flags": {
            "upper_natural_physical": report.flags.upper_natural_physical,
            "searched_feasible": report.flags.searched_feasible,
            "geof_feasible": report.flags.geof_feasible,
            "hierarchy_ok": report.flags.hierarchy_ok,
            "violations": list(report.flags.violations),
        },
    }


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write output file: {exc}") from exc


def run_analyze(args: argparse.Namespace) -> None:
    if args.input is None:
        raise ParseError("analyze requires --input PATH")
    doc = _load_document(args.input)
    cm = resolve_state_document(doc)

    # The invariants are printed and reduced to the standard form, so they
    # are computed once, here.
    inv = invariants(cm)
    sf, res = _checked(cm, args.tol_psd, inv)
    report = _report(sf, res, not args.no_geof, args.tol_psd, args.tol_bound, args.geof_tol)

    out = {
        "units": args.units,
        "invariants": {"I1": inv.i1, "I2": inv.i2, "I3": inv.i3, "I4": inv.i4},
        "standard_form": {"a": sf.a, "b": sf.b, "c1": sf.c1, "c2": sf.c2},
        "symplectic_eigenvalues": {"mu_minus": float(res.nu_minus), "mu_plus": float(res.nu_plus)},
        "ppt_symplectic_eigenvalues": {"mu_minus": float(res.nu_t), "mu_plus": float(res.nu_t_plus)},
        "entangled": report.entangled,
        "bounds": _report_dict(report, args.units),
    }
    _write_text(args.output, json.dumps(out, indent=2) + "\n")


def _parse_axis(doc: dict, key: str) -> np.ndarray:
    body = doc.get(key, {"min": 1.0, "max": 4.0, "steps": 40})
    if not isinstance(body, dict):
        raise ParseError(f"'{key}' must be an object with min/max/steps")
    lo = _as_float(body.get("min", 1.0), f"{key}.min")
    hi = _as_float(body.get("max", 4.0), f"{key}.max")
    steps = body.get("steps", 40)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ParseError(f"{key}.steps must be a positive integer")
    if hi < lo:
        raise ParseError(f"{key}: max < min")
    return np.linspace(lo, hi, steps)


def _parse_scan_spec(args: argparse.Namespace) -> dict:
    doc = {str(k).lower(): v for k, v in (
        _load_document(args.input) if args.input else {}
    ).items()}
    unknown = set(doc) - {"i1", "i2", "i3", "i4", "geof"}
    if unknown:
        raise ParseError(f"unknown scan keys: {sorted(unknown)}")
    i4 = doc.get("i4", "2|I3|sqrt(I1*I2)")
    if isinstance(i4, str):
        if i4 not in I4_RULE_STRINGS:
            raise ParseError(
                f"i4 must be a number or one of {sorted(I4_RULE_STRINGS)}, got {i4!r}"
            )
        i4_rule = None
    else:
        i4_rule = _as_float(i4, "i4")
    geof_on = doc.get("geof", True)
    if not isinstance(geof_on, bool):
        raise ParseError("'geof' toggle must be a boolean")
    return {
        "i1": _parse_axis(doc, "i1"),
        "i2": _parse_axis(doc, "i2"),
        "i3": _as_float(doc.get("i3", -0.2), "i3"),
        "i4_literal": i4_rule,
        "geof": geof_on and not args.no_geof,
    }


def run_scan(args: argparse.Namespace) -> None:
    spec = _parse_scan_spec(args)
    i1, i2 = (x.ravel() for x in np.meshgrid(spec["i1"], spec["i2"], indexing="ij"))
    i3 = np.full_like(i1, spec["i3"])
    i4 = (2.0 * abs(spec["i3"]) * np.sqrt(i1 * i2) if spec["i4_literal"] is None
          else np.full_like(i1, spec["i4_literal"]))
    forms = _standard_forms(i1, i2, i3, i4)
    res = _standard_bounds(*forms, args.tol_psd)
    ok = res.physical  # False where there is no standard form (NaN)
    g = np.full_like(i1, np.nan)
    if spec["geof"]:
        value, _, feasible, _ = _geof_forms(*(x[ok] for x in forms), args.tol_psd)
        g[ok] = np.where(feasible, value, np.nan)

    def numbers(values: np.ndarray, shown: np.ndarray = ok) -> list[str]:
        column = _formatted(values)
        for i in np.flatnonzero(~shown).tolist():
            column[i] = ""
        return column

    def entropy(values: np.ndarray, shown: np.ndarray = ok) -> list[str]:
        return numbers(_convert(values, args.units), shown)

    def flags(values: np.ndarray) -> list[str]:
        return np.where(ok, np.where(values, "true", "false"), "").tolist()

    # Grid order is I1-major, so each axis value is formatted only once.
    columns = [
        [cell for cell in _formatted(spec["i1"]) for _ in range(len(spec["i2"]))],
        _formatted(spec["i2"]) * len(spec["i1"]),
        [format(spec["i3"], _FLOAT)] * len(i1),
        _formatted(i4),
        numbers(res.nu_t, ~np.isnan(res.nu_t)),
        flags(res.entangled),
        entropy(res.lower_natural),
        entropy(res.lower_sigma),
        entropy(g, ~np.isnan(g)),
        entropy(res.eeof),
        entropy(res.upper_natural, ok & res.upper_physical),
        flags(res.upper_physical),
        np.where(ok, "ok", np.where(np.isnan(forms[0]), "no_state", "unphysical")).tolist(),
    ]
    lines = [",".join(SCAN_COLUMNS), *map(",".join, zip(*columns))]
    _write_text(args.output, "\n".join(lines) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="eofbounds",
        description="Entanglement-of-formation bounds for two-mode Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext in (
        ("analyze", run_analyze, "report invariants, spectra and bounds for one state"),
        ("scan", run_scan, "sweep a grid of invariants and emit CSV rows"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--input", help="path to the JSON input document")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--tol-psd", type=float, default=1e-10,
                       help="PSD / physicality tolerance (default 1e-10)")
        if name == "analyze":  # a scan checks no bound hierarchy
            p.add_argument("--tol-bound", type=float, default=1e-9,
                           help="tolerance for bound comparisons (default 1e-9)")
            p.add_argument("--geof-tol", type=float, default=1e-6,
                           help="slack of the bound checks against geof (default 1e-6)")
        p.add_argument("--units", choices=("nats", "bits"), default="nats",
                       help="units for entanglement values")
        p.add_argument("--no-geof", action="store_true",
                       help="skip the geof oracle (fast scans)")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("tol_psd", "tol_bound", "geof_tol"):
            value = getattr(args, name, 0.0)  # a scan has only --tol-psd
            if not 0.0 <= value < math.inf:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"{flag} must be finite and non-negative, got {value}")
        args.func(args)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonPhysicalStateError, DegenerateInvariantsError, NonPositiveMatrixError,
            DomainError) as exc:
        print(f"error: unphysical input: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
