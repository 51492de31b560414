#!/usr/bin/env python3
"""Wall benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
decoder libraries from src/) in Release mode under .bench_build/, runs the
measurement helpers' self-test, then runs one benchmark:

    python3 perfbench/run.py --workload threaded-1080p-2x1 --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones (the
traced pass's spans also go to .bench_build/traces/). Build output goes to
standard error. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def sh(cmd):
    # Build chatter goes to stderr: stdout's last line is the result.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if sh(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    if sh(["cmake", "--build", BUILD, "-j4",
           "--target", "wall_bench", "stats_check"]) != 0:
        return False
    return sh([os.path.join(BUILD, "stats_check")]) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build or self-test failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "wall_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", os.path.join(OUT, "streams")]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: wall_bench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
