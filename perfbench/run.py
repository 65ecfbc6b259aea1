#!/usr/bin/env python3
"""Builds and runs the daily-scan benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload daily-5k --seed 2024 --seconds 10 --trace 0

Builds perfbench/ (the httpsrr library from src/ plus daily_scan_bench) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload.  Build output goes to stderr; the benchmark's report goes to
stdout, whose last line is one JSON object with "correct", "attempted",
"failed" and "metrics".  --trace 1 also writes the recorded spans next to
the build, as spans-<workload>-<seed>.json.
"""

import argparse
import mmap
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Workload -> MiB of memory to pre-fault, about twice its peak RSS.
WORKLOADS = {"daily-5k": 256, "socket-5k": 256}
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures once, then builds incrementally.  False on any failure."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would skip configuration next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    step = ["cmake", "--build", build_dir, "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def prefault(mib):
    """Touches `mib` of fresh anonymous memory, then returns it to the OS.

    On a virtual machine whose host backs guest memory lazily, the first
    touch of a guest page costs about twice a later one (4.5 vs 2.4 us per
    4 KiB page on the sizing host), so the first runs on a fresh machine
    would read slower than later ones.  The benchmark's allocations then get
    pages the host already backs; its own page faults stay in every
    measurement.  Done here, in another process, so that the benchmark's
    peak RSS is its own.
    """
    size = mib << 20
    with mmap.mmap(-1, size) as region:
        for offset in range(0, size, mmap.PAGESIZE):
            region[offset] = 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "daily_scan_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    prefault(WORKLOADS[args.workload])
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
