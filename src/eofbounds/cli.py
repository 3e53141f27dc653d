"""Command-line interface: single-state reports and invariant-grid scans.

Exit codes: 0 success, 2 parse error or an unreadable input or unwritable
output file, 3 unphysical input.  An input file that is not UTF-8 is an
unreadable one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import _ROWS, _standard_bounds, bound_report
from .entanglement import LN2
from .errors import DomainError, NonPhysicalStateError, ParseError
from .states import CovMat, Invariants, StandardForm, _standard_forms
from .symplectic import PSD_TOL

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

#: The one spelling of the correlated I4 rule of grid scans, their default.
I4_RULE = "2|I3|sqrt(I1*I2)"


#: Format of every number in scan output, the bytes of format(x, ".12g").
_FLOAT = "%.12g"


def _formatted(values: np.ndarray) -> list[str]:
    # The costliest step of a scan without geof: one % per column, of cells with digits only.
    v = values.tolist()
    return ((_FLOAT + "\n") * len(v) % tuple(v)).split("\n")[:-1]


def _cells(values: np.ndarray, shown: np.ndarray) -> list[list[str]]:
    """Rows of cells of a 2-D array: "" where not shown, else _FLOAT % x.

    An exact +0.0 prints "0", as format would, without formatting; -0.0
    has its sign bit set and prints "-0".
    """
    cells = np.where(shown, "0", "").astype(object)
    plain = shown & ((values != 0.0) | np.signbit(values))
    cells[plain] = _formatted(values[plain])
    return cells.tolist()


#: The table rows of the scan's value columns, in column order.
_SCAN_ROWS = [_ROWS.index(name) for name in
              ("nu_t", "lower_natural", "lower_sigma", "geof", "eeof", "upper_natural")]

#: Cells of the flag and status columns, by the codes run_scan gives them.
_LABELS = np.array(["", "false", "true", "no_state", "unphysical", "ok"], dtype=object)


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} in input JSON")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of pairs; a repeated key is a ParseError, not the later value."""
    body = dict(pairs)
    if len(body) < len(pairs):
        repeated = sorted(k for k in body if sum(j == k for j, _ in pairs) > 1)
        raise ParseError(f"duplicate keys in input JSON: {repeated}")
    return body


#: The one decoder of input documents; json.load would build one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_constant=_reject_constant)


def _load_document(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    try:
        if text.startswith("\ufeff"):  # as json.loads rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # also an over-long int, or too deep nesting
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


def _keys(body: dict, known: set[str], what: str, lower: bool = False) -> dict:
    """body, with its keys lower-cased if lower, once every key is one of known.

    A key not in known, and with lower two keys that differ only in case,
    are a ParseError: neither may be dropped or overwritten silently.
    """
    if lower:
        lowered = {k.lower(): v for k, v in body.items()}
        if len(lowered) < len(body):
            clashing = sorted(k for k in body if sum(j.lower() == k.lower() for j in body) > 1)
            raise ParseError(f"{what} keys differ only in case: {clashing}")
        body = lowered
    unknown = set(body) - known
    if unknown:
        raise ParseError(f"unknown {what} keys: {sorted(unknown)}")
    return body


def resolve_state_document(doc: dict) -> CovMat | StandardForm:
    """The state of one of the three representations, for `bound_report` to reduce once.

    A matrix gives its CovMat and a standard form its StandardForm as
    written; invariants give the standard form `_standard_forms` solves,
    or raise DomainError where it finds none (a scan's "no_state").
    """
    keys = set(_keys(doc, {"matrix", "standard_form", "invariants"}, "document"))
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
        # One pass: an int or an entry that is no finite float goes through
        # _as_float under its name, which raises on what it rejects.
        for i, row in enumerate(body):
            for j, x in enumerate(row):
                if type(x) is not float or not math.isfinite(x):
                    _as_float(x, f"matrix[{i}][{j}]")
        return CovMat(np.array(body, dtype=float))
    if not isinstance(body, dict):
        raise ParseError(f"'{key}' must be an object")
    if key == "standard_form":
        missing = {"a", "b", "c1", "c2"} - set(_keys(body, {"a", "b", "c1", "c2"}, key))
        if missing:
            raise ParseError(f"standard_form missing keys: {sorted(missing)}")
        return StandardForm(*(_as_float(body[k], k) for k in ("a", "b", "c1", "c2")))
    body = _keys(body, {"i1", "i2", "i3", "i4"}, key, lower=True)
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


#: The analyze report's text with a %s slot for each leaf, in print order:
#: json.dumps(report, indent=2) + "\n", laid out once.
_REPORT = json.dumps({
    "units": "%s",
    "invariants": dict.fromkeys(("I1", "I2", "I3", "I4"), "%s"),
    "standard_form": dict.fromkeys(("a", "b", "c1", "c2"), "%s"),
    "symplectic_eigenvalues": dict.fromkeys(("mu_minus", "mu_plus"), "%s"),
    "ppt_symplectic_eigenvalues": dict.fromkeys(("mu_minus", "mu_plus"), "%s"),
    "entangled": "%s",
    "bounds": {
        **dict.fromkeys(("lower_natural", "lower_sigma", "upper_natural", "upper_searched",
                         "eeof", "geof"), "%s"),
        "geof_witness": dict.fromkeys(("s_a", "s_b", "r"), "%s"),
        "entangled": "%s",
        "flags": dict.fromkeys(("upper_natural_physical", "searched_feasible", "geof_feasible",
                                "hierarchy_ok", "violations"), "%s"),
    },
}, indent=2).replace('"%s"', "%s") + "\n"

#: JSON tokens of the leaves that are not numbers.
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _token(leaf) -> str:
    """json.dumps(leaf) of a report leaf: a float (or 0-d array), a bool or None."""
    if leaf is None or isinstance(leaf, bool):
        return _CONSTANTS[leaf]
    leaf = float(leaf)
    return float.__repr__(leaf) if math.isfinite(leaf) else json.dumps(leaf)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot write output file: {exc}") from exc


def run_analyze(args: argparse.Namespace) -> None:
    if args.input is None:
        raise ParseError("analyze requires --input PATH")
    report = bound_report(resolve_state_document(_load_document(args.input)),
                          not args.no_geof, args.tol_psd)

    values = (report.lower_natural, report.lower_sigma, report.upper_natural,
              report.upper_searched, report.eeof, report.geof)
    leaves = (
        *report.invariants, *report.standard_form, *report.symplectic_eigenvalues,
        *report.ppt_symplectic_eigenvalues, report.entangled,
        *(_convert(x, args.units) for x in values), *(report.geof_witness or (None,) * 3),
        report.entangled,
        report.upper_natural is not None, report.upper_searched is not None,
        None if args.no_geof else report.geof is not None, not report.violations,
    )
    # The violations are a member of flags, 6 spaces in.
    violations = (json.dumps(list(report.violations), indent=2).replace("\n", "\n      ")
                  if report.violations else "[]")
    _write_text(args.output, _REPORT % (json.dumps(args.units), *map(_token, leaves), violations))


def _parse_axis(doc: dict, key: str) -> np.ndarray:
    body = doc.get(key, {})
    if not isinstance(body, dict):
        raise ParseError(f"'{key}' must be an object with min/max/steps")
    _keys(body, {"min", "max", "steps"}, key)
    lo = _as_float(body.get("min", 1.0), f"{key}.min")
    hi = _as_float(body.get("max", 4.0), f"{key}.max")
    steps = body.get("steps", 40)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ParseError(f"{key}.steps must be a positive integer")
    if hi < lo:
        raise ParseError(f"{key}: max < min")
    if not math.isfinite(hi - lo):
        raise ParseError(f"{key}: max - min overflows")
    try:
        return np.linspace(lo, hi, steps)
    except (ValueError, IndexError) as exc:  # more steps than numpy can allocate or count
        raise ParseError(f"{key}.steps is too large: {exc}") from exc


def _parse_scan_spec(args: argparse.Namespace) -> dict:
    doc = _keys(_load_document(args.input) if args.input else {},
                {"i1", "i2", "i3", "i4", "geof"}, "scan", lower=True)
    i4 = doc.get("i4", I4_RULE)
    if isinstance(i4, str):
        if i4 != I4_RULE:
            raise ParseError(f"i4 must be a number or {I4_RULE!r}, got {i4!r}")
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
    # The grid, I1-major.
    i1, i2 = np.repeat(spec["i1"], len(spec["i2"])), np.tile(spec["i2"], len(spec["i1"]))
    i3 = np.full_like(i1, spec["i3"])
    # I1 I2 may overflow to inf, an unphysical point, or be negative, no state.
    with np.errstate(over="ignore", invalid="ignore"):
        i4 = (2.0 * abs(spec["i3"]) * np.sqrt(i1 * i2) if spec["i4_literal"] is None
              else np.full_like(i1, spec["i4_literal"]))
    forms, solved = _standard_forms(i1, i2, i3, i4)
    forms = np.where(solved, forms, np.nan)
    # ok is False where there is no standard form (NaN).
    ok, entangled, table = _standard_bounds(*forms, args.tol_psd, include_geof=spec["geof"])

    # mu_tilde_minus and the five entropy columns, formatted in one pass: an
    # entropy prints on the physical rows, and none prints where it is NaN.
    values = table[_SCAN_ROWS]
    shown = ~np.isnan(values)
    shown[1:] &= ok
    values[1:] = _convert(values[1:], args.units)
    nu_t, lower, sigma, geof, eeof, upper = _cells(values, shown)
    # A flag, the PPT test or whether upper_natural shows, is "" (0) off the
    # physical rows, else "false" (1) or "true" (2); every physical row is
    # solved, so the status is 3 + solved + ok.
    entangled_flag, upper_flag, status = _LABELS[np.array(
        (ok * (1 + entangled), ok * (1 + shown[-1]), 3 + solved + ok)
    )].tolist()

    # Grid order is I1-major, so each axis value is formatted only once.
    columns = [
        [cell for cell in _formatted(spec["i1"]) for _ in range(len(spec["i2"]))],
        _formatted(spec["i2"]) * len(spec["i1"]),
        [_FLOAT % spec["i3"]] * len(i1),
        _formatted(i4),
        nu_t, entangled_flag, lower, sigma, geof, eeof, upper, upper_flag, status,
    ]
    lines = [",".join(SCAN_COLUMNS), *map(",".join, zip(*columns))]
    _write_text(args.output, "\n".join(lines) + "\n")


#: The commands, by name.
_COMMANDS = {"analyze": run_analyze, "scan": run_scan}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    One flat parser: both commands take the same five options, so the
    command is a positional argument, not a subparser with a second round
    of parsing.
    """
    parser = argparse.ArgumentParser(
        prog="eofbounds",
        description="Entanglement-of-formation bounds for two-mode Gaussian states.",
    )
    parser.add_argument("command", choices=_COMMANDS,
                        help="analyze: report invariants, spectra and bounds for one state; "
                             "scan: sweep a grid of invariants and emit CSV rows")
    parser.add_argument("--input", help="path to the JSON input document")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--tol-psd", type=float, default=PSD_TOL,
                        help="PSD / physicality tolerance (default %(default)g)")
    parser.add_argument("--units", choices=("nats", "bits"), default="nats",
                        help="units for entanglement values")
    parser.add_argument("--no-geof", action="store_true",
                        help="skip the geof oracle (fast scans)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 <= args.tol_psd < math.inf:
            raise ParseError(f"--tol-psd must be finite and non-negative, got {args.tol_psd}")
        _COMMANDS[args.command](args)
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
