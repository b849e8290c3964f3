#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/repeat.py --workloads knn-memory,fleet-wire-mixed \
        --seeds 1-10 --seconds 20 [--trace 0] [--out runs.json]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json, plus each run's failed/attempted counts. Runs are made
one after another, never in parallel, so they do not disturb each
other. Exits 1 if any run failed or printed no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"exit {done.returncode}; stderr ends:\n"
              + "\n".join(done.stderr.splitlines()[-12:]))
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED ({result})")
                ok = False
                continue
            runs.append((seed, result))
            print(f"{workload} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']}",
                  flush=True)
        rows = {}
        names = list(runs[0][1]["metrics"]) if runs else []
        for name in names:
            values = [r["metrics"][name]["value"] for _, r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, 0, median))
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread,
                          "unit": runs[0][1]["metrics"][name]["unit"],
                          "values": values}
            bound = bounds.get(name)
            bound_text = f"bound {bound:.2f}" if bound else ""
            print(f"  {name:34s} median {median:14.3f} "
                  f"{rows[name]['unit']:10s} spread {spread:7.4f} "
                  f"{bound_text}")
        report[workload] = {"seeds": [s for s, _ in runs], "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
