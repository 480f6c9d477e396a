#!/usr/bin/env python3
"""Builds and runs catbench, the Catnip datapath benchmark (see NOTES.md).

Run from the repository root:

    python3 catbench/run.py --workload echo_tcp --seed 1 --seconds 10 --trace 0
    python3 catbench/run.py --selftest

The first call configures and compiles the system from ../src into .bench_build/catbench
(Release); later calls rebuild only what changed. The benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is 0 only when the
build succeeded, every output check passed and that line is well formed. A traced run
(--trace 1) also writes its spans as Chrome trace_event JSON to
.bench_build/catbench/trace_<workload>_<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "catbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("catbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(BUILD, "catbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the negative controls (flipped reply and AOF bytes are caught)")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(BUILD, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("catbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        well_formed = (set(result) == {"correct", "attempted", "failed", "metrics"}
                       and result["attempted"] >= 1)
    except ValueError:
        well_formed = False
    if done.returncode != 0 or not well_formed:
        sys.stderr.write("catbench: run failed (exit %d)\n" % done.returncode)
        if well_formed:
            sys.stdout.write(lines[-1] + "\n")
        return done.returncode or 4
    sys.stdout.write(lines[-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
