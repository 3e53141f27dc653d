"""eofbounds benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload scan-geof --seed 1 --seconds 30 --trace 0

Run from the repository root.  Measures set-up time as the median of
several fresh interpreters importing eofbounds.cli, then runs the workload
in a fresh single-threaded interpreter (bench/worker.py) for --seconds, and
at least once through the work set the seed fixes, and checks every output.  Prints every metric with its unit and direction,
then, as the last line, one JSON object with the metrics BENCHMARK.json
declares: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  The full result, with run metadata, is also written to
.bench_work/results/.  Exits non-zero without a result if the package
sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calib

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("scan-geof", "scan-bounds", "analyze-frames")
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def workload_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def import_seconds(argv: list[str], env: dict) -> float:
    """Wall time of one fresh interpreter running argv, killed after 120 s.

    Popen.wait() without a timeout blocks in waitpid; with a timeout it polls,
    and the time would land on its grid of sleeps of up to 50 ms.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT)
    timer = threading.Timer(120.0, proc.kill)
    timer.start()
    rc = proc.wait()
    dt = time.perf_counter() - t0
    timer.cancel()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, argv)
    return dt


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing eofbounds.cli, after one warm-up,
    and of the fresh interpreters importing numpy before, between and after them
    (the speed probe of calib.REF_IMPORT_S)."""
    argv = [sys.executable, "-c", "import eofbounds.cli"]
    probe = [sys.executable, "-c", "import numpy"]
    import_seconds(argv, env)
    import_seconds(probe, env)
    times, probes = [], [import_seconds(probe, env)]
    for _ in range(SETUP_SAMPLES):
        times.append(import_seconds(argv, env))
        probes.append(import_seconds(probe, env))
    return times, probes


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "eofbounds", "cli.py")):
        print("error: src/eofbounds not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    env = workload_env()
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup, probes = setup_seconds(env)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", work],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + 120,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(calib.scaled(setup, probes, calib.REF_IMPORT_S)),
                              "unit": "s", "better": "lower",
                              "note": f"median of {len(setup)} fresh imports of eofbounds.cli, scaled"}
        metrics["wall_setup_s"] = {"value": statistics.median(setup), "unit": "s", "better": "lower",
                                   "note": "unscaled"}

    meta = result["workload_metadata"]
    correct = (
        result["attempted"] >= 1
        and all(m["name"] in metrics and math.isfinite(metrics[m["name"]]["value"])
                and metrics[m["name"]]["unit"] == m["unit"] for m in declared)
        and not meta.get("nondeterministic")
    )
    result.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "setup_samples_s": setup,
        "setup_probe_s": probes,
        "run_metadata": {
            "src_lines": src_lines(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {v: env[v] for v in THREAD_VARS}, **result.pop("versions"),
        },
    })
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    gated = {m["name"] for m in declared}
    print(f"eofbounds benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} correct={correct}")
    print(f"  {'metric':44} {'value':>14} {'unit':6} {'better':7} {'gated':6} note")
    for name, m in metrics.items():
        print(f"  {name:44} {m['value']:14.6g} {m['unit']:6} {m['better']:7} "
              f"{'yes' if name in gated else 'no':6} {m['note']}")
    print(f"  failed ops: {result['failed']} of {result['attempted']} distinct ops attempted "
          f"(the work set), checked on each of {result['calls']} calls")
    for reason, count in result["failure_reasons"].items():
        print(f"    {count:5d} x {reason}")
    print(f"  run: src lines {result['run_metadata']['src_lines']}, python "
          f"{result['run_metadata']['python']}, numpy {result['run_metadata']['numpy']}, "
          f"scipy {result['run_metadata']['scipy']}, nproc {result['run_metadata']['nproc']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
