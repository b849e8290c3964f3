#!/usr/bin/env python3
"""Builds and runs the Blobworld serving-path benchmark.

    python3 perfbench/run.py --workload knn-memory --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles the repository's libraries from source) into
.bench_build/perfbench; later runs rebuild only what changed. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's: 0 when
every check passed, 1 when one failed, 2 on bad arguments; a failed
build exits 1 without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "bwperf")
WORKLOADS = ("knn-memory", "knn-cold-pool", "fleet-wire-mixed")


def build():
    """Configures (once) and builds bwperf; False when either step fails."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "bwperf"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if not build():
        return 1
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    os.execv(BINARY, argv + extra)


if __name__ == "__main__":
    sys.exit(main())
