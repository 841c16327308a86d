#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload dp_n1 --seed 1 --seconds 10 --trace 0

Workloads: dp_n1, web_soak_smp4, uext_calls (see perfbench/README.md).
The first run configures and builds perfbench/ (the simulator library plus
the benchmark binary) under .bench_build/perfbench; later runs rebuild
incrementally. The binary's report goes to standard output and ends with
one JSON line; the full results (fingerprint, every metric, per-pass host
times) and the traced pass's spans are written under
.bench_build/perfbench/results/. The exit code is the binary's: nonzero
when a correctness check failed or the build did not succeed.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("dp_n1", "web_soak_smp4", "uext_calls")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kernel", "kernel.h")):
        print("perfbench: the simulator sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--results", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + "-spans.jsonl"]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
