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
from .errors import DomainError, NonPhysicalStateError, ParseError
from .states import CovMat, Invariants, StandardForm, _standard_forms, invariants

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
    # The costliest step of a scan without geof: _cells passes only cells with digits.
    return list(map(format, values.tolist(), itertools.repeat(_FLOAT)))


def _cells(values: np.ndarray, shown: np.ndarray) -> list[list[str]]:
    """Rows of cells of a 2-D array: "" where not shown, else format(x, _FLOAT).

    An exact +0.0 prints "0", as format would, without formatting; -0.0
    has its sign bit set and prints "-0".
    """
    cells = np.where(shown, "0", "").astype(object)
    plain = shown & ((values != 0.0) | np.signbit(values))
    cells[plain] = _formatted(values[plain])
    return cells.tolist()


#: Cells of the flag and status columns, by the codes run_scan gives them.
_LABELS = np.array(["", "false", "true", "no_state", "unphysical", "ok"], dtype=object)


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


def resolve_state_document(doc: dict) -> CovMat | StandardForm:
    """The state of one of the three representations, for `run_analyze` to reduce once.

    A matrix gives its CovMat and a standard form its StandardForm as
    written; invariants give the standard form `_standard_forms` solves,
    or raise DomainError where it finds none (a scan's "no_state").
    """
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
        return StandardForm(*(_as_float(body[k], k) for k in ("a", "b", "c1", "c2")))
    body = {str(k).lower(): v for k, v in body.items()}
    missing = {"i1", "i2", "i3", "i4"} - set(body)
    if missing:
        raise ParseError(f"invariants missing keys: {sorted(k.upper() for k in missing)}")
    inv = Invariants(*(_as_float(body[k], k.upper()) for k in ("i1", "i2", "i3", "i4")))
    form, ok = _standard_forms(*inv)
    if not ok:
        raise DomainError(
            f"no standard form: need I1, I2 > 0 and I4/sqrt(I1*I2) >= 2|I3|, got {inv}"
        )
    return StandardForm(*map(float, form))


def _convert(value: float | None, units: str) -> float | None:
    if value is None or units == "nats":
        return value
    return value / LN2


def _report_dict(report: BoundReport, units: str, include_geof: bool) -> dict:
    return {
        "lower_natural": _convert(report.lower_natural, units),
        "lower_sigma": _convert(report.lower_sigma, units),
        "upper_natural": _convert(report.upper_natural, units),
        "upper_searched": _convert(report.upper_searched, units),
        "eeof": _convert(report.eeof, units),
        "geof": _convert(report.geof, units),
        "entangled": report.entangled,
        "flags": {
            "upper_natural_physical": report.upper_natural is not None,
            "searched_feasible": report.upper_searched is not None,
            "geof_feasible": report.geof is not None if include_geof else None,
            "hierarchy_ok": not report.violations,
            "violations": list(report.violations),
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
    state = resolve_state_document(doc)

    # The invariants are printed, and a matrix is reduced to its standard
    # form from them, so they are computed once, here; a standard form's
    # are those of its matrix.
    inv = invariants(state if isinstance(state, CovMat) else state.to_covmat())
    sf, res = _checked(state, args.tol_psd, inv, not args.no_geof)
    report = _report(sf, res, args.tol_psd)

    out = {
        "units": args.units,
        "invariants": {"I1": inv.i1, "I2": inv.i2, "I3": inv.i3, "I4": inv.i4},
        "standard_form": {"a": sf.a, "b": sf.b, "c1": sf.c1, "c2": sf.c2},
        "symplectic_eigenvalues": {"mu_minus": float(res.nu_minus), "mu_plus": float(res.nu_plus)},
        "ppt_symplectic_eigenvalues": {"mu_minus": float(res.nu_t), "mu_plus": float(res.nu_t_plus)},
        "entangled": report.entangled,
        "bounds": _report_dict(report, args.units, not args.no_geof),
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
    forms, solved = _standard_forms(i1, i2, i3, i4)
    forms = np.where(solved, forms, np.nan)
    res = _standard_bounds(*forms, args.tol_psd, include_geof=spec["geof"])
    ok = res.physical  # False where there is no standard form (NaN)

    # mu_tilde_minus and the five entropy columns, formatted in one pass.
    values = np.array((res.nu_t, res.lower_natural, res.lower_sigma, res.geof, res.eeof,
                       res.upper_natural))
    values[1:] = _convert(values[1:], args.units)
    upper_physical = ~np.isnan(res.upper_natural)
    shown = np.array((~np.isnan(res.nu_t), ok, ok, ~np.isnan(res.geof), ok, ok & upper_physical))
    nu_t, lower, sigma, geof, eeof, upper = _cells(values, shown)
    # A flag is "" (0) off the physical rows, else "false" (1) or "true" (2);
    # every physical row is solved, so the status is 3 + solved + ok.
    entangled, upper_flag, status = _LABELS[np.array(
        (ok * (1 + res.entangled), ok * (1 + upper_physical), 3 + solved + ok)
    )].tolist()

    # Grid order is I1-major, so each axis value is formatted only once.
    columns = [
        [cell for cell in _formatted(spec["i1"]) for _ in range(len(spec["i2"]))],
        _formatted(spec["i2"]) * len(spec["i1"]),
        [format(spec["i3"], _FLOAT)] * len(i1),
        _formatted(i4),
        nu_t, entangled, lower, sigma, geof, eeof, upper, upper_flag, status,
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
        if not 0.0 <= args.tol_psd < math.inf:
            raise ParseError(f"--tol-psd must be finite and non-negative, got {args.tol_psd}")
        args.func(args)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonPhysicalStateError, DomainError) as exc:
        print(f"error: unphysical input: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
