#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of the benchmark.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds into
.bench_build/ (Release); later runs rebuild only what changed.  Build output
and the benchmark's own report go to stderr; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.  Exits non-zero,
without printing a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_CAP_S = 170  # a run must end within 180 s; keep margin for the build check


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [BINARY, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: run exceeded {RUN_CAP_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench_e2e: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("bench_e2e: malformed result line", file=sys.stderr)
        return 1
    print(f"bench_e2e: {a.workload} ran in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
