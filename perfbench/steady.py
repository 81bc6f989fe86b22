#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads keystroke,parse,...] [--out FILE]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, cycling round-robin over the workloads, and reports for
every end-to-end metric the median and the spread: the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {m: [] for m in bounds} for w in workloads}
    failed = {w: 0 for w in workloads}
    # Round-robin: seed by seed, every workload in turn, so a slow drift of
    # the host's speed spreads over all workloads instead of landing on
    # the ones measured last.
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            r = run_once(w, seed, bench["run_seconds"])
            failed[w] += r["failed"] + (0 if r["correct"] else 1)
            for m in bounds:
                values[w][m].append(r["metrics"][m]["value"])
            print(f"{w:13s} seed {seed}: " + "  ".join(
                f"{m} {r['metrics'][m]['value']:.4g}" for m in bounds),
                file=sys.stderr, flush=True)
    report = {}
    for w in workloads:
        report[w] = {"failed": failed[w], "metrics": {}}
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            report[w]["metrics"][m] = {
                "median": med, "spread": round(spread, 4),
                "bound": bounds[m], "values": vs}
            print(f"{w:13s} {m:12s} median {med:12.4f}  spread "
                  f"{spread:6.3f}  bound {bounds[m]:.2f}"
                  f"{'  ' if spread < bounds[m] / 3 else '  WIDE'}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
