#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload at reduced size: twice with one seed (traced, so the
per-layer metrics are compared too), which must give identical simulated
metrics, and once with a second seed, which must give different traffic
that still passes every check. It also checks that the printed metrics are
exactly the ones BENCHMARK.json names, each with its unit, and that the
benchmark refuses to run without the simulator sources.

Usage, from the repository root:

    python3 perfbench/selftest.py [--binary PATH]

Without --binary it builds the benchmark first (as run.py does).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Reduced sizes: a few thousand ops per workload.
SCALES = {"dp_n1": 0.05, "web_soak_smp4": 0.02, "uext_calls": 0.1}


def scratch_dir():
    """Temporary files stay inside the checkout, next to the build."""
    path = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def run_binary(binary, workload, seed, trace, out_dir):
    results = os.path.join(out_dir, f"{workload}-{seed}-{trace}.json")
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", str(SCALES[workload]), "--results", results],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    with open(results) as f:
        full = json.load(f)
    return proc.returncode, last, full


def simulated_layer(result):
    """The deterministic part of a traced run's per-layer metrics."""
    return {k: v for k, v in result["per_layer"].items()
            if k.startswith(("sim.", "kernel.", "net.", "nic.", "smp.", "web."))
            or k in ("cpu.insns_per_op", "cpu.tlb_miss_ratio", "core.uext.crossing_cycles",
                     "core.kext.crossing_cycles_per_call")}


def check_workload(binary, spec, workload, out_dir):
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(f"{workload}: {what}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {}
    for tag, seed, trace in (("a", 7, 1), ("b", 7, 1), ("c", 8, 0)):
        rc, last, full = run_binary(binary, workload, seed, trace, out_dir)
        runs[tag] = full
        expect(rc == 0, f"seed {seed} exited {rc}: {full.get('errors')}")
        expect(last.get("correct") is True and last.get("failed") == 0,
               f"seed {seed} reported correct={last.get('correct')} failed={last.get('failed')}")
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        expect(list(last.get("metrics", {})) == names,
               f"trace {trace} prints {sorted(last.get('metrics', {}))}, BENCHMARK.json names "
               f"{sorted(names)}")
        for name, m in last.get("metrics", {}).items():
            expect(m.get("unit") == units.get(name), f"{name} has unit {m.get('unit')}")
        if trace == 0:
            for name in names:
                expect(last["metrics"].get(name, {}).get("value", 0) > 0, f"{name} is not > 0")

    a, b, c = runs["a"], runs["b"], runs["c"]
    expect(a["simulated"] == b["simulated"],
           "simulated metrics differ between two runs of one seed")
    expect(simulated_layer(a) == simulated_layer(b),
           "simulated per-layer metrics differ between two runs of one seed")
    expect(a["inputs_digest"] == b["inputs_digest"], "one seed generated different inputs")
    expect(a["inputs_digest"] != c["inputs_digest"], "a second seed generated the same inputs")
    return failures


def check_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, run.py must fail."""
    with tempfile.TemporaryDirectory(dir=scratch_dir()) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dp_n1", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            return ["run.py did not refuse a checkout without src/"]
    return []


def main():
    parser = argparse.ArgumentParser(description="The benchmark's own test.")
    parser.add_argument("--binary", help="a built perfbench binary (default: build one)")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        sys.path.insert(0, HERE)
        import run as perfbench_run  # noqa: E402

        if not perfbench_run.build():
            print("selftest: build failed", file=sys.stderr)
            return 1
        binary = perfbench_run.BINARY

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = check_refuses_without_sources()
    with tempfile.TemporaryDirectory(dir=scratch_dir()) as out_dir:
        for workload in (w["name"] for w in spec["workloads"]):
            found = check_workload(binary, spec, workload, out_dir)
            print(f"{workload}: {'ok' if not found else 'FAILED'}")
            failures += found
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
