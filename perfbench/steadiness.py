#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs every workload (or those named) once per seed with tracing off and
prints, per workload and metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, beside the metric's bound from
BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--seconds S] [--first-seed N] [WORKLOAD ...]

Output is Markdown. Exits 1 if a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d reported incorrect output" % (workload, seed))
    return result


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    print("Seeds %d..%d, %d s per run, tracing off.\n"
          % (args.first_seed, args.first_seed + args.runs - 1, args.seconds))
    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            try:
                result = run_once(workload, args.first_seed + i, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as err:
                print("**%s**" % err)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("### %s\n" % workload)
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median | bound | values in seed order |")
        print("|---|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {})
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s | %s |"
                  % (name, bound.get("unit", ""), med, q1, q3, spread, bound.get("bound", ""),
                     " ".join("%.4g" % v for v in vals)))
        print()
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
