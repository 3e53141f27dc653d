"""Self-tests of the benchmark.

    python3 -m pytest -q bench/selftest.py

Not collected by the package's own test run (the file name does not match
test_*.py), because the smoke runs start interpreters and each goes once
through its work set, about three minutes in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from eofbounds import CovMat, cli, geof  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(workload: str, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["scan-geof", "scan-bounds", "analyze-frames"])
def test_smoke_prints_every_metric_with_unit(workload):
    table, result = run_bench(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = next(line.split() for line in table if line.split()[:1] == [m["name"]])
        assert row[2:4] == [m["unit"], m["better"]]
    for name in ("failed_frac", "upper_coverage_frac"):
        assert any(line.split()[:1] == [name] for line in table)


def test_traced_scan_bounds_never_calls_geof():
    table, result = run_bench("scan-bounds", 2, 1)
    metrics = result["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    assert metrics["geof.calls_per_op"]["value"] == 0
    assert metrics["states.require_physical.calls_per_op"]["value"] > 0
    assert any(line.split()[:1] == ["trace.overhead_frac"] for line in table)


class CorruptingCli:
    """Runs the real CLI, then damages what it wrote."""

    def __init__(self, damage):
        self.damage = damage

    def main(self, argv):
        rc = cli.main(argv)
        self.damage(argv[argv.index("--output") + 1])
        return rc


def _edit(path, edit):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(edit(text))


def _sigma_below_lower(path):
    def edit(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            row = dict(zip(header, cells))
            if row["status"] == "ok" and row["entangled"] == "true":
                cells[header.index("eof_sigma")] = "-1"
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

    _edit(path, edit)


def _entangled_tile(ops) -> int:
    """Index of the first scan document with an entangled grid point."""
    for i, chunk in enumerate(ops.chunks):
        doc = chunk["doc"]
        i1, i3 = doc["i1"]["min"], doc["i3"]
        for i2 in np.linspace(doc["i2"]["min"], doc["i2"]["max"], doc["i2"]["steps"]):
            if oracle.classify((i1, i2, i3, 2 * abs(i3) * np.sqrt(i1 * i2)))["entangled"]:
                return i
    raise AssertionError("no entangled tile")


def test_corrupted_scan_rows_count_as_failed(tmp_path):
    ops = worker.ScanOps("scan-bounds", 1, str(tmp_path))
    i = _entangled_tile(ops)
    clean, damaged = worker.Run(), worker.Run()
    ops.run(cli, i, clean, None)
    ops.run(CorruptingCli(_sigma_below_lower), i, damaged, None)
    assert not clean.failed and clean.covered
    assert damaged.failed.keys() == damaged.covered.keys()


def test_corrupted_report_counts_as_failed(tmp_path):
    ops = worker.AnalyzeOps(1, str(tmp_path))
    flip = lambda text: text.replace('"hierarchy_ok": true', '"hierarchy_ok": false')  # noqa: E731
    clean, damaged = worker.Run(), worker.Run()
    ops.run(cli, 3, clean, None)  # a separable state: no geof search
    ops.run(CorruptingCli(lambda path: _edit(path, flip)), 3, damaged, None)
    assert clean.attempted == damaged.attempted == 1
    assert not clean.failed and len(damaged.failed) == 1


def test_report_bound_order_is_checked_beside_the_program_flag():
    state = {"cls": "asym_up", "entangled": True, "nu_t": 0.5}
    bounds = {"lower_natural": 0.1, "lower_sigma": 0.2, "geof": 0.3, "upper_natural": 0.4,
              "upper_searched": 0.35, "eeof": 0.25, "flags": {"hierarchy_ok": True, "violations": []}}
    report = {"entangled": True, "bounds": bounds}
    assert oracle.check_report(0, report, state, 1e-9, 1e-6) is None
    for change in ({"lower_natural": 0.21}, {"lower_sigma": 0.31}, {"upper_natural": 0.29},
                   {"upper_searched": 0.29}):
        assert oracle.check_report(0, {**report, "bounds": {**bounds, **change}}, state, 1e-9, 1e-6)


def test_closed_form_rejects_bad_rows():
    row = {"I1": 1.44, "I2": 1.44, "I3": -0.2, "I4": 0.4 * 1.44, "status": "ok"}
    cls = oracle.classify((row["I1"], row["I2"], row["I3"], row["I4"]))
    exact = oracle.sym_eof(cls["nu_t"])
    row.update(entangled=True, eof_lower_natural=exact, eof_sigma=exact, geof=exact,
               eeof=exact, eof_upper_natural=exact)
    assert cls["entangled"] and oracle.check_scan_row(row, True, 1e-9, 1e-6)[0] is None
    for change in ({"status": "unphysical"}, {"entangled": False}, {"geof": exact + 1e-3},
                   {"eof_sigma": exact + 1e-3}, {"eof_upper_natural": exact - 1e-3}):
        assert oracle.check_scan_row({**row, **change}, True, 1e-9, 1e-6)[0] is not None


def test_geof_witness_certifies_and_tampering_does_not():
    state = inputs.analyze_corpus(5, size=2)[1]
    v = CovMat(np.array(state["doc"]["matrix"]))
    result = geof(v)
    assert oracle.certify_geof(v.matrix, result, 1e-10) is None
    lowered = type(result)(**{**result.__dict__, "value": result.value - 1e-3})
    assert oracle.certify_geof(v.matrix, lowered, 1e-10) is not None
    params = result.argmin_parameters.copy()
    params[4] += 0.05
    moved = type(result)(**{**result.__dict__, "argmin_parameters": params})
    assert oracle.certify_geof(v.matrix, moved, 1e-10) is not None


def test_spread_order_is_a_permutation():
    for n in (1, 40, 200):
        assert sorted(inputs.spread_order(n)) == list(range(n))
    assert inputs.spread_order(40)[:2] == [0, 32]


class ThreeOps:
    """A work set of three ops, of which the second fails on every call."""

    calls = size = 3

    def run(self, cli, i, run, geof_calls):
        i %= self.calls
        run.op_times.append((i, 1, 1e-4))
        if i == 1:
            run.fail((i,), "always")


def test_loop_counts_each_op_once_however_many_calls():
    short = worker.loop(ThreeOps(), None, 0.0)
    long = worker.loop(ThreeOps(), None, 0.1)
    assert len(short.op_times) == ThreeOps.calls < len(long.op_times)
    assert short.failed == long.failed == {(1,): "always"}
    assert len(worker.loop(ThreeOps(), None, 0.0, whole_pass=False).op_times) == 1
