#!/usr/bin/env python3
"""Builds and runs the upload-path benchmark of the EnergyDx fleet service.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gateway-ack --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the EnergyDx
libraries it links) with CMake into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only re-check the build.  Each run then
executes the benchmark's arithmetic tests and one benchmark run, whose
standard output (a table, then one JSON line) is passed through.  Exits
non-zero when the build, the tests or an output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("gateway-ack", "dashboard-live", "restart")
# The benchmark must exit within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    source = os.path.join(root, "perfbench")
    quiet = {"stdout": subprocess.DEVNULL}

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, **quiet).returncode != 0:
            print("perfbench: cmake configure failed", file=sys.stderr)
            return 1
    if subprocess.run(["cmake", "--build", build, "-j2"], **quiet).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if subprocess.run([os.path.join(build, "bench_math_test"), "--gtest_brief=1"],
                      **quiet).returncode != 0:
        print("perfbench: bench_math_test failed", file=sys.stderr)
        return 1

    work = os.path.join(build, "work")
    command = [os.path.join(build, "upload_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
