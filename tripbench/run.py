#!/usr/bin/env python3
"""Builds and runs the Figure-1 trip benchmark.

Run from the root of a checkout:

    python3 tripbench/run.py --workload cold_trip --seed 1 --seconds 15 --trace 0

Workloads: cold_trip, disk_restart, warm_serve (see tripbench/README.md).
The first run configures and builds tripbench/CMakeLists.txt (the asipfb
library from src/ plus the driver, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr.  The driver's report goes to stdout and ends
with one JSON line: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which also writes a Chrome trace under
<build dir>/traces/).  Scratch stores live under <build dir>/work/ and are
removed when the run ends.  Exit status: 0 when every output matched its
reference, 1 on a mismatch, 2 on a build or set-up failure.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "session.hpp")):
        print("tripbench: no asipfb sources next to the benchmark", file=sys.stderr)
        return None
    out = os.path.join(build_dir, "tripbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "tripbench"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("tripbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "tripbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_trip", "disk_restart", "warm_serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2

    work_dir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    if args.trace == "1":
        cmd += ["--trace-file",
                os.path.join(build_dir, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("tripbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
