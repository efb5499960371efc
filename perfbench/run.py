#!/usr/bin/env python3
"""Entry point of the live-runtime benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rpc10-skew|kv-etc|tpcc --seed N \
        --seconds S --trace 0|1

On first use it builds perfbench/ and the repository sources it compiles into
.bench_build/ (CMake; Ninja when installed). It then runs one measurement and
passes the program's output through; the last line is the result JSON. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("rpc10-skew", "kv-etc", "tpcc")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    try:
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        fail("no repository sources next to perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        ok = True
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            ok = run_logged(configure, log, BUILD_TIMEOUT_S)
        if ok:
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            ok = run_logged(["cmake", "--build", BUILD, "--parallel", jobs], log,
                            BUILD_TIMEOUT_S)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed (log: .bench_build/build.log)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the program printed no result (exit code %d)" % done.returncode)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
