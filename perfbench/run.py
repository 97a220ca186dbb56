#!/usr/bin/env python3
r"""Builds and runs the XRefine benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine_cold --seed 1 --seconds 50 \
        --trace 0

Workloads: engine_cold, serve_store, serve_hot. The first run builds the
benchmark program and the library sources it links into
.bench_build/perfbench (CMake, Release). The program prints every metric of
the run with its unit, then one JSON result line, which is also this
script's last line of output.
--trace 1 reports the per-layer metrics instead of the end-to-end ones.
The exit code is non-zero when the build fails, an answer check fails or
the result line is malformed.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "xrefine_perfbench")
WORKLOADS = ("engine_cold", "serve_store", "serve_hot")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark program; True on success."""
    steps = [["cmake", "--build", BUILD_DIR, "--target", "xrefine_perfbench",
              "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def check_result(line, trace):
    """Validates the program's result line; returns an error or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            return "metric %s missing or with the wrong unit" % metric["name"]
        if not math.isfinite(got["value"]):
            return "metric %s is not finite" % metric["name"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
