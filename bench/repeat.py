"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workloads scan-geof analyze-frames --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --trace-seed 0 --out bench/baseline.json

Run from the repository root.  For every workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread,
the distance between the quartiles as a share of the median, next to the
bound BENCHMARK.json fixes; a spread above a third of the bound is flagged.
Metrics that are printed but not gated are summarized the same way.  With
--trace-seed it also makes one traced run per workload.  With --out it
writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=seconds + 300,
    )
    path = os.path.join(ROOT, ".bench_work", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["workload_metadata"].pop("csv_sha256_by_tile", None)
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary, traced = [], {}, []
    for workload in args.workloads:
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        runs.extend(results)
        if args.trace_seed is not None:
            traced.append(run_once(workload, args.trace_seed, spec["run_seconds"], 1))
        names = [n for n in results[0]["metrics"] if all(n in r["metrics"] for r in results)]
        summary[workload] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "correct": all(r["correct"] for r in results),
            "metrics": {n: summarize([r["metrics"][n]["value"] for r in results]) for n in names},
        }
        s = summary[workload]
        print(f"{workload}: {s['failed']} failed of {s['attempted']} attempted, "
              f"correct in every run: {s['correct']}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, m in s["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and (m["spread"] is None or m["spread"] > bound / 3):
                flag = "  <-- spread above a third of the bound"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:24} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{spread:>8} {'-' if bound is None else bound:>6}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seconds": spec["run_seconds"], "seeds": args.seeds, "summary": summary,
                       "runs": runs, "traced_runs": traced}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
