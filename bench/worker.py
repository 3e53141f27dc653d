"""One workload in a fresh interpreter: a closed loop of CLI calls by one client.

Started by run.py with PYTHONPATH pointing at the package sources and the
BLAS thread counts pinned to 1.  Each op is timed around `cli.main` alone;
writing its input and checking its output happen outside the timed region.

The seed fixes a work set of ops, which the loop cycles through for the
given seconds, and at least once whole.  Timings cover every call.  The
counts and the accuracy figures are per distinct op of the work set, each
checked on every call: an op fails if any of its calls fails a check.  So
`attempted`, `failed` and the accuracy figures depend on the seed alone,
not on how many calls the machine managed.

Prints one JSON object with the measured figures.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import calib
import inputs
import oracle
from tracer import Tracer

TOL_PSD, TOL_BOUND, GEOF_TOL = 1e-10, 1e-9, 1e-6

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Run:
    """Counters of one timed loop."""

    def __init__(self):
        # Keyed by op: (index in the work set,) plus the point for scans.
        self.failed: dict[tuple, str] = {}
        self.covered: dict[tuple, bool] = {}  # entangled ops: any upper bound reported
        self.geof_entangled: dict[tuple, float] = {}
        self.sym_excess: dict[tuple, float] = {}
        self.bytes_out = 0
        self.geof_ops: list[tuple] = []  # (first capture index, calls, point ids) per op
        self.op_times: list[tuple[int, int, float]] = []  # (index in the work set, points, seconds) per call
        self.kernel: list[float] = []  # calibration kernel seconds before each call and after the last

    def fail(self, uid: tuple, reason: str) -> None:
        self.failed.setdefault(uid, reason)

    @property
    def attempted(self) -> int:
        """Ops run, repeats included."""
        return sum(p for _, p, _ in self.op_times)

    @property
    def busy(self) -> float:
        return sum(t for _, _, t in self.op_times)

    def scaled_times(self) -> list[float]:
        """Call times at the reference machine speed (see calib.py)."""
        return calib.scaled([t for _, _, t in self.op_times], self.kernel)

    def ops_per_s(self, n: int | None = None) -> float:
        """Ops per reference second over the first n calls."""
        return sum(p for _, p, _ in self.op_times[:n]) / sum(self.scaled_times()[:n])

    def pass_times(self, scaled: bool = True) -> list[tuple[int, float]]:
        """(points, seconds) of each call of one pass over the work set.

        A call's time is the fastest of its repeats: every op weighs the
        same however far the last pass got, and a slow moment of a shared
        machine, which only ever adds time, is left out.
        """
        times = self.scaled_times() if scaled else [t for _, _, t in self.op_times]
        repeats: dict[int, tuple[int, list[float]]] = {}
        for (i, p, _), t in zip(self.op_times, times):
            repeats.setdefault(i, (p, []))[1].append(t)
        return [(p, min(ts)) for p, ts in repeats.values()]

    def latency_ms(self, scaled: bool = True) -> list[float]:
        """Time per op of each call of a pass; a scan call's points share its time."""
        return [1e3 * t / p for p, t in self.pass_times(scaled)]


def _call(cli, argv: list[str]):
    """Run cli.main once; returns (exit code or exception text, seconds)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # any raise is a failed op, never the end of the run
            rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, dt


class ScanOps:
    def __init__(self, workload: str, seed: int, work: str):
        self.grid = inputs.scan_grid(workload, seed)
        self.chunks = inputs.scan_chunks(self.grid)
        self.calls = len(self.chunks)  # calls in one pass over the work set
        self.size = self.calls * self.grid["tile"]  # distinct ops
        self.inp, self.out = os.path.join(work, "scan.json"), os.path.join(work, "scan.csv")
        self.sha256: dict[int, str] = {}
        self.nondeterministic: set[int] = set()

    def run(self, cli, i: int, run: Run, geof_calls) -> None:
        i %= self.calls
        chunk = self.chunks[i]
        with open(self.inp, "w", encoding="utf-8") as handle:
            json.dump(chunk["doc"], handle)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        argv = ["scan", "--input", self.inp, "--output", self.out]
        if self.grid["no_geof"]:
            argv.append("--no-geof")
        first_capture = len(geof_calls) if geof_calls is not None else 0
        rc, dt = _call(cli, argv)
        points = self.grid["tile"]
        run.op_times.append((i, points, dt))
        uids = [(i, p) for p in range(points)]
        try:
            with open(self.out, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raw = None
        if rc != 0 or raw is None:
            for uid in uids:
                run.fail(uid, f"scan exit {rc}" if rc != 0 else "no CSV written")
            return
        run.bytes_out += len(raw)
        digest = hashlib.sha256(raw).hexdigest()
        if self.sha256.setdefault(chunk["tile"], digest) != digest:
            self.nondeterministic.add(chunk["tile"])
        rows = oracle.parse_scan_csv(raw.decode("utf-8"))
        if len(rows) != points:
            for uid in uids:
                run.fail(uid, f"{len(rows)} rows for {points} grid points")
            return
        ok_points = []
        for uid, row in zip(uids, rows):
            reason, cls = oracle.check_scan_row(row, not self.grid["no_geof"], TOL_BOUND, GEOF_TOL)
            if reason:
                run.fail(uid, reason)
            if row.get("status") == "ok":
                ok_points.append(uid)
            if cls["physical"] and cls["entangled"]:
                run.covered.setdefault(uid, row.get("eof_upper_natural") is not None)
                g = row.get("geof")
                if g is not None:
                    run.geof_entangled.setdefault(uid, g)
                    if oracle.on_diagonal(row):
                        run.sym_excess.setdefault(uid, g - oracle.sym_eof(cls["nu_t"]))
        if geof_calls is not None:
            run.geof_ops.append((first_capture, len(geof_calls) - first_capture, ok_points))

    def metadata(self) -> dict:
        joined = "".join(self.sha256[k] for k in sorted(self.sha256)).encode()
        return {
            "grid": self.grid,
            "work_set_csv_sha256": hashlib.sha256(joined).hexdigest(),
            "csv_sha256_by_tile": {str(k): v for k, v in sorted(self.sha256.items())},
            "nondeterministic": sorted(self.nondeterministic),
        }


class AnalyzeOps:
    def __init__(self, seed: int, work: str):
        self.corpus = inputs.analyze_corpus(seed)
        self.calls = self.size = len(self.corpus)
        self.inp, self.out = os.path.join(work, "state.json"), os.path.join(work, "report.json")
        self.sha256: dict[int, str] = {}
        self.nondeterministic: set[int] = set()

    def run(self, cli, i: int, run: Run, geof_calls) -> None:
        i %= self.calls
        state = self.corpus[i]
        with open(self.inp, "w", encoding="utf-8") as handle:
            json.dump(state["doc"], handle)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        first_capture = len(geof_calls) if geof_calls is not None else 0
        rc, dt = _call(cli, ["analyze", "--input", self.inp, "--output", self.out])
        uid = (i,)
        run.op_times.append((i, 1, dt))
        report = None
        if os.path.exists(self.out):
            with open(self.out, "rb") as handle:
                raw = handle.read()
            run.bytes_out += len(raw)
            digest = hashlib.sha256(raw).hexdigest()
            if self.sha256.setdefault(i, digest) != digest:
                self.nondeterministic.add(i)
            report = json.loads(raw)
        reason = oracle.check_report(rc, report, state, TOL_BOUND, GEOF_TOL)
        if reason:
            run.fail(uid, reason)
        if geof_calls is not None:
            run.geof_ops.append((first_capture, len(geof_calls) - first_capture, [uid]))
        if not state["entangled"]:
            return
        bounds = (report or {}).get("bounds", {})
        run.covered.setdefault(uid, bounds.get("upper_natural") is not None
                               or bounds.get("upper_searched") is not None)
        g = bounds.get("geof")
        if g is not None:
            run.geof_entangled.setdefault(uid, g)
            if state["cls"] == "sym":
                run.sym_excess.setdefault(uid, g - oracle.sym_eof(state["nu_t"]))

    def metadata(self) -> dict:
        return {"corpus_size": len(self.corpus),
                "raw_frame_states": sum(state["raw_frame"] for state in self.corpus),
                "nondeterministic": sorted(self.nondeterministic)}


def loop(ops, cli, seconds: float, geof_calls=None, whole_pass: bool = True) -> Run:
    """Closed loop: the next op starts when the previous one is done.

    Runs for `seconds` and, with whole_pass, until it has been once through
    the work set, even if that takes longer.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    min_calls = ops.calls if whole_pass else 1
    i = 0
    while True:
        run.kernel.append(calib.kernel_seconds())
        ops.run(cli, i, run, geof_calls)
        i += 1
        if i >= min_calls and time.perf_counter() >= deadline:
            run.kernel.append(calib.kernel_seconds())
            return run


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest ladder percentile with at least 10 samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return float(np.percentile(samples, p)), f"p{p:g}"
    return max(samples), "max"


def end_to_end(run: Run, size: int) -> dict:
    """Timings of one pass over the work set, from every call of the run;
    counts over the `size` distinct ops of the work set."""
    one_pass = run.pass_times()
    pass_s = sum(t for _, t in one_pass)
    wall_pass_s = sum(t for _, t in run.pass_times(scaled=False))
    latency = run.latency_ms()
    tail_ms, tail_label = tail(latency)
    failed = len(run.failed)
    n = f"n={len(latency)} calls of a pass, each the fastest of its repeats in {len(run.op_times)} calls"
    entangled, covered = len(run.covered), sum(run.covered.values())
    m = {
        "ops_per_s": (size / pass_s, "1/s", "higher",
                      f"{size} ops in {pass_s:.3f} reference s of calls a pass"),
        "latency_p50_ms": (float(np.percentile(latency, 50)), "ms", "lower", n),
        "latency_tail_ms": (tail_ms, "ms", "lower", f"{tail_label}, {n}"),
        "wall_ops_per_s": (size / wall_pass_s, "1/s", "higher", f"{wall_pass_s:.3f} wall s of calls a pass"),
        "wall_latency_p50_ms": (float(np.percentile(run.latency_ms(scaled=False), 50)), "ms", "lower",
                                "unscaled"),
        "kernel_ms": (1e3 * statistics.median(run.kernel), "ms", "lower",
                      f"median calibration kernel; {1e3 * calib.REF_S:g} ms is the reference speed"),
        "ok_frac": (1.0 - failed / size, "frac", "higher", f"{size - failed}/{size} distinct ops passed"),
        "failed_frac": (failed / size, "frac", "lower", f"{failed}/{size} distinct ops failed"),
        "upper_coverage_frac": (covered / entangled if entangled else 0.0, "frac", "higher",
                                f"{covered}/{entangled} entangled ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "lower",
                        "workload process"),
    }
    if run.geof_entangled:
        m["geof_mean_nats"] = (statistics.fmean(run.geof_entangled.values()), "nats", "lower",
                               f"over {len(run.geof_entangled)} entangled ops")
    if run.sym_excess:
        m["geof_sym_excess_max"] = (max(run.sym_excess.values()), "nats", "lower",
                                    f"over {len(run.sym_excess)} symmetric entangled ops; README promises 1e-6")
    return m


def geof_class(v: np.ndarray) -> str:
    cls = oracle.classify(oracle.invariants_of(v))
    if not cls["entangled"]:
        return "sep"
    a, b = cls["sf"][0], cls["sf"][1]
    return "sym" if abs(a - b) <= 1e-9 * max(a, b) else "asym"


def per_layer(tracer: Tracer, untraced: Run, traced: Run) -> dict:
    ops, busy = traced.attempted, traced.busy
    scale = sum(traced.scaled_times()) / busy  # layer times are scaled like call times
    m = {}

    def per_op(name, value, unit, note=""):
        m[name] = (value / ops, unit, "lower", note)

    geof_calls = tracer.captured[("geof", "geof")]
    classes = [geof_class(args[0].matrix) for args, _, _ in geof_calls]
    for cls in ("sym", "asym", "sep"):
        calls = [(d, r) for (_, d, r), c in zip(geof_calls, classes) if c == cls]
        k = len(calls)
        m[f"geof.ms_per_call.{cls}"] = (1e3 * scale * sum(d for d, _ in calls) / k if k else 0.0,
                                        "ms", "lower", f"{k} calls")
        m[f"geof.evals_per_call.{cls}"] = (sum(r.iterations for _, r in calls) / k if k else 0.0,
                                           "count", "lower", f"{k} calls")
    n_geof = len(geof_calls)
    m["geof.calls_per_op"] = (n_geof / ops, "count", "lower", f"{n_geof} calls")
    m["geof.feasible_frac"] = (sum(r.feasible for _, _, r in geof_calls) / n_geof if n_geof else 0.0,
                               "frac", "higher", f"{n_geof} calls")
    m["geof.budget_exhausted"] = (float(sum(r.budget_exhausted for _, _, r in geof_calls)), "count",
                                  "lower", f"of {n_geof} calls")
    m["geof.self_frac"] = (tracer.self_time["geof"] / busy, "frac", "lower", "share of traced op time")
    for layer in ("geof", "bounds", "states", "symplectic", "entanglement", "cli"):
        per_op(f"{layer}.self_ms_per_op", 1e3 * scale * tracer.self_time[layer], "ms")
    searched = tracer.captured[("bounds", "searched_upper_bound")]
    natural = tracer.captured[("bounds", "natural_bounds")]
    k = len(searched)
    m["bounds.searched_upper_bound.ms_per_call"] = (
        scale * tracer.ms_of("bounds", "searched_upper_bound") / k if k else 0.0, "ms", "lower", f"{k} calls")
    per_op("bounds.searched_upper_bound.calls_per_op", float(k), "count")
    m["bounds.searched_feasible_frac"] = (
        sum(r is not None for _, _, r in searched) / k if k else 0.0, "frac", "higher", f"{k} calls")
    m["bounds.upper_natural_physical_frac"] = (
        sum(r.upper_physical for _, _, r in natural) / len(natural) if natural else 0.0,
        "frac", "higher", f"{len(natural)} calls")
    per_op("states.require_physical.calls_per_op", float(tracer.calls_of("states", "require_physical")), "count")
    per_op("symplectic.symplectic_spectrum.calls_per_op",
           float(tracer.calls_of("symplectic", "symplectic_spectrum")), "count")
    per_op("cli.bytes_out_per_op", float(traced.bytes_out), "bytes")
    covered = sum(tracer.self_time.values())
    # Compare both halves on the same ops: each ran the op sequence from its start.
    n = min(len(untraced.op_times), len(traced.op_times))
    rate = {"untraced": untraced.ops_per_s(n), "traced": traced.ops_per_s(n)}
    note = f"first {n} calls of each half"
    m["trace.untraced_ops_per_s"] = (rate["untraced"], "1/s", "higher", note)
    m["trace.ops_per_s"] = (rate["traced"], "1/s", "higher", note)
    m["trace.overhead_frac"] = (1.0 - rate["traced"] / rate["untraced"], "frac", "lower",
                                "1 - traced/untraced ops_per_s")
    m["trace.attributed_frac"] = (covered / busy, "frac", "higher", "layer self time over op time")
    return m


def certify(tracer: Tracer, run: Run) -> int:
    """Certify every captured geof call; an uncertified value fails its op."""
    calls = tracer.captured[("geof", "geof")]
    bad = 0
    for first, count, uids in run.geof_ops:
        for k, uid in enumerate(uids[:count]):
            args, _, result = calls[first + k]
            reason = oracle.certify_geof(args[0].matrix, result, TOL_PSD)
            if reason:
                bad += 1
                run.fail(uid, "uncertified geof: " + reason)
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    from eofbounds import cli

    if args.workload == "analyze-frames":
        ops = AnalyzeOps(args.seed, args.work)
    else:
        ops = ScanOps(args.workload, args.seed, args.work)
    ops.run(cli, 0, Run(), None)  # lazy imports and first-call costs

    if args.trace:
        untraced = loop(ops, cli, args.seconds / 2.0, whole_pass=False)
        tracer = Tracer()
        tracer.install()
        traced = loop(ops, cli, args.seconds / 2.0, tracer.captured[("geof", "geof")])
        uncertified = certify(tracer, traced)
        runs = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
        metrics["geof.uncertified"] = (float(uncertified), "count", "lower", "calls failing the witness check")
    else:
        runs = [loop(ops, cli, args.seconds)]
        metrics = end_to_end(runs[0], ops.size)

    failed = {}
    for r in runs:
        for uid, reason in r.failed.items():
            failed.setdefault(uid, reason)
    failures = collections.Counter(failed.values())
    print(json.dumps({
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "attempted": ops.size,
        "calls": sum(len(r.op_times) for r in runs),
        "failed": sum(failures.values()),
        "failure_reasons": dict(failures.most_common(10)),
        "metrics": {k: {"value": v[0], "unit": v[1], "better": v[2], "note": v[3]}
                    for k, v in metrics.items()},
        "workload_metadata": ops.metadata(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
