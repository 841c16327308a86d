#!/usr/bin/env python3
"""Bench-smoke gate: fail if a gated benchmark metric regressed.

Usage: check_bench_regression.py BASELINE.json FRESH.json [tolerance]

The JSON format is auto-detected by content:

google-benchmark JSON (bench_simspeed output, a "benchmarks" list). For
every gated throughput benchmark — block engine (name ending in `_block`)
and host-parallel SMP (name ending in `_threaded`) — the gate checks:

 1. absolute sim-MIPS against the committed baseline, with `tolerance`
    slack (default 0.20 = 20%, env PALLADIUM_BENCH_MIPS_TOLERANCE);
 2. if the absolute check fails, the *paired in-binary ratio* from the same
    JSON — block/insn for `_block` names, threaded/interleaved for
    `_threaded` names —
    against the baseline's ratio. A runner that is uniformly slower than
    the machine that produced the baseline moves both engines together and
    keeps the ratio, so only a genuine engine regression (ratio collapse)
    fails the gate.

A `_threaded` row's speed and its threaded/interleaved ratio depend on how
many host cores run the vCPU threads, so every `_threaded` line prints both
files' `context.num_cpus`, and the row fails outright ("re-record") when
they differ: a ratio recorded on another core count says nothing about
this run.

Aggregate entries (`_median` etc.) are preferred when present so
`--benchmark_repetitions` runs gate on the median.

BenchJson output (a "metrics" object). Simulated metrics are deterministic:
rerunning a bench reproduces them exactly. So every key that both files
carry and whose name does not start with `host_` must be *equal*; the gate
fails on any difference and prints the first few differing keys. `host_*`
keys are host wall-clock measurements and are not compared. On top of
the exact check:

 - dataplane output (carrying "dataplane_packets_per_sec" or
   "requests_per_sec"): the simulated packet/request rate against the
   committed baseline with `tolerance` slack (default 0.10, env
   PALLADIUM_BENCH_PPS_TOLERANCE), and "queue_full_drops" no worse than
   the baseline's;
 - protection output (carrying "palladium_cycles_per_invocation"): the
   protection overhead *ratio* — Palladium cycles/invocation over
   unprotected cycles/invocation — against the committed baseline with
   `tolerance` slack (default 0.10, env PALLADIUM_BENCH_PROT_TOLERANCE),
   and zero frames dropped by the live upgrade ("upgrade_dropped_frames").

These headline checks name what regressed in domain terms; the exact check
is what catches a change smaller than their tolerance.
"""
import json
import os
import sys


def load_json(path):
    with open(path) as f:
        return json.load(f)


def is_metrics_format(data):
    return isinstance(data, dict) and isinstance(data.get("metrics"), dict)


# Throughput keys a BenchJson dataplane file may carry, in gate preference
# order (the plain bench emits packets/sec, the soak emits requests/sec).
DATAPLANE_RATE_KEYS = ("dataplane_packets_per_sec", "requests_per_sec")


def check_dataplane(baseline_data, fresh_data, argv_tolerance):
    tolerance = float(
        argv_tolerance if argv_tolerance is not None
        else os.environ.get("PALLADIUM_BENCH_PPS_TOLERANCE", "0.10"))
    base_m = baseline_data["metrics"]
    fresh_m = fresh_data["metrics"]
    name = baseline_data.get("bench", "dataplane")
    failed = False

    rate_key = next((k for k in DATAPLANE_RATE_KEYS if k in base_m), None)
    if rate_key is None:
        print(f"FAIL: {name}: baseline has none of {DATAPLANE_RATE_KEYS}")
        return 1
    base_rate = float(base_m[rate_key])
    if rate_key not in fresh_m:
        print(f"FAIL: {name}: fresh run is missing {rate_key}")
        failed = True
    else:
        fresh_rate = float(fresh_m[rate_key])
        ratio = fresh_rate / base_rate if base_rate else float("inf")
        line = (f"{name} {rate_key}: baseline {base_rate:.0f} -> "
                f"fresh {fresh_rate:.0f} ({ratio:.2f}x)")
        if fresh_rate >= base_rate * (1.0 - tolerance):
            print(f"{line} ok")
        else:
            print(f"{line} FAIL (more than {tolerance:.0%} below baseline; "
                  f"the rate is in simulated cycles, so this is a real "
                  f"dataplane regression, not runner noise)")
            failed = True

    # Metrics present in the fresh snapshot but absent from the committed
    # baseline are new telemetry (e.g. the federated "obs." registry
    # counters), not regressions: report them so the baseline refresh is a
    # conscious step, and gate only on the keys both sides carry.
    report_fresh_only(name, base_m, fresh_m)

    base_drops = base_m.get("queue_full_drops")
    fresh_drops = fresh_m.get("queue_full_drops")
    if base_drops is not None:
        if fresh_drops is None:
            print(f"FAIL: {name}: fresh run is missing queue_full_drops")
            failed = True
        elif float(fresh_drops) > float(base_drops):
            print(f"{name} queue_full_drops: baseline {float(base_drops):.0f} "
                  f"-> fresh {float(fresh_drops):.0f} FAIL (drops regressed)")
            failed = True
        else:
            print(f"{name} queue_full_drops: baseline {float(base_drops):.0f} "
                  f"-> fresh {float(fresh_drops):.0f} ok")
    return 1 if failed else 0


def report_fresh_only(name, base_m, fresh_m):
    fresh_only = sorted(set(fresh_m) - set(base_m))
    if fresh_only:
        preview = ", ".join(fresh_only[:5])
        more = f", ... ({len(fresh_only)} total)" if len(fresh_only) > 5 else ""
        print(f"note: {name}: {len(fresh_only)} fresh metrics have no committed "
              f"baseline yet (not gated): {preview}{more}")


# How many differing simulated keys the exact gate prints.
EXACT_DIFF_PREVIEW = 5


def check_simulated_exact(name, base_m, fresh_m):
    """Fails (returns True) if a simulated key both files carry differs."""
    shared = sorted(k for k in set(base_m) & set(fresh_m) if not k.startswith("host_"))
    differing = [k for k in shared if base_m[k] != fresh_m[k]]
    if not differing:
        print(f"{name}: all {len(shared)} shared simulated metrics equal the "
              f"baseline exactly ok")
        return False
    print(f"{name}: {len(differing)} of {len(shared)} shared simulated "
          f"metrics differ from the baseline FAIL (simulated metrics are "
          f"deterministic: regenerate the baseline and state the cause in "
          f"CHANGES.md if the change is intended)")
    for k in differing[:EXACT_DIFF_PREVIEW]:
        print(f"  {k}: baseline {base_m[k]} -> fresh {fresh_m[k]}")
    if len(differing) > EXACT_DIFF_PREVIEW:
        print(f"  ... ({len(differing) - EXACT_DIFF_PREVIEW} more)")
    return True


def check_protection(baseline_data, fresh_data, argv_tolerance):
    tolerance = float(
        argv_tolerance if argv_tolerance is not None
        else os.environ.get("PALLADIUM_BENCH_PROT_TOLERANCE", "0.10"))
    base_m = baseline_data["metrics"]
    fresh_m = fresh_data["metrics"]
    name = baseline_data.get("bench", "protection")
    failed = False

    def overhead_ratio(m, where):
        pd = m.get("palladium_cycles_per_invocation")
        un = m.get("unprotected_cycles_per_invocation")
        if pd is None or un is None or not float(un):
            print(f"FAIL: {name}: {where} is missing palladium/unprotected "
                  f"cycles_per_invocation")
            return None
        return float(pd) / float(un)

    base_ratio = overhead_ratio(base_m, "baseline")
    fresh_ratio = overhead_ratio(fresh_m, "fresh run")
    if base_ratio is None or fresh_ratio is None:
        failed = True
    else:
        line = (f"{name} palladium/unprotected cycles ratio: baseline "
                f"{base_ratio:.2f}x -> fresh {fresh_ratio:.2f}x")
        if fresh_ratio <= base_ratio * (1.0 + tolerance):
            print(f"{line} ok")
        else:
            print(f"{line} FAIL (protected crossing got more than "
                  f"{tolerance:.0%} more expensive relative to the "
                  f"unprotected run — both are simulated cycles, so this is "
                  f"a real protection regression)")
            failed = True

    drops = fresh_m.get("upgrade_dropped_frames")
    if drops is None:
        print(f"FAIL: {name}: fresh run is missing upgrade_dropped_frames")
        failed = True
    elif float(drops) != 0:
        print(f"{name} upgrade_dropped_frames: {float(drops):.0f} FAIL "
              f"(the live filter upgrade must not lose frames)")
        failed = True
    else:
        print(f"{name} upgrade_dropped_frames: 0 ok")

    report_fresh_only(name, base_m, fresh_m)
    return 1 if failed else 0


def sim_mips(data):
    plain = {}
    median = {}
    for bench in data.get("benchmarks", []):
        # The SMP rows run with UseRealTime, which suffixes the name with
        # "/real_time"; strip it so the `_threaded`/`_interleaved` suffix
        # matching and baseline keys stay clock-agnostic.
        name = bench.get("name", "").replace("/real_time", "")
        if "sim_mips" not in bench:
            continue
        if name.endswith("_median"):
            median[name[: -len("_median")]] = float(bench["sim_mips"])
        elif "_" in name:
            plain[name] = float(bench["sim_mips"])
    # Median aggregates win over per-repetition entries.
    plain.update(median)
    return plain


# Gated suffix -> the in-binary reference its ratio is paired with. The SMP
# rows gate the threaded harness against the interleaver on the same machine
# and JSON: a runner with fewer/slower host cores moves both rows together,
# so only a genuine loss of host-parallel speedup (ratio collapse) fails.
PAIRED_REFERENCE = {"_block": "_insn", "_threaded": "_interleaved"}


def gated_suffix(name):
    for suffix in PAIRED_REFERENCE:
        if name.endswith(suffix):
            return suffix
    return None


def engine_ratio(mips, name):
    suffix = gated_suffix(name)
    ref_name = name[: -len(suffix)] + PAIRED_REFERENCE[suffix]
    gated = mips.get(name)
    ref = mips.get(ref_name)
    if gated is None or not ref:
        return None
    return gated / ref


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    baseline_path, fresh_path = sys.argv[1], sys.argv[2]
    baseline_data = load_json(baseline_path)
    fresh_data = load_json(fresh_path)
    if is_metrics_format(baseline_data) or is_metrics_format(fresh_data):
        if not (is_metrics_format(baseline_data) and is_metrics_format(fresh_data)):
            print(f"FAIL: {baseline_path} and {fresh_path} are different "
                  f"bench JSON formats (one has a 'metrics' object, the "
                  f"other does not)")
            return 1
        argv_tol = sys.argv[3] if len(sys.argv) > 3 else None
        name = baseline_data.get("bench", "metrics")
        if "palladium_cycles_per_invocation" in baseline_data["metrics"]:
            rc = check_protection(baseline_data, fresh_data, argv_tol)
        else:
            rc = check_dataplane(baseline_data, fresh_data, argv_tol)
        if check_simulated_exact(name, baseline_data["metrics"], fresh_data["metrics"]):
            rc = 1
        return rc
    tolerance = float(
        sys.argv[3] if len(sys.argv) > 3
        else os.environ.get("PALLADIUM_BENCH_MIPS_TOLERANCE", "0.20"))
    baseline = sim_mips(baseline_data)
    fresh = sim_mips(fresh_data)
    base_cpus = baseline_data.get("context", {}).get("num_cpus")
    fresh_cpus = fresh_data.get("context", {}).get("num_cpus")
    gated_names = sorted(n for n in baseline if gated_suffix(n))
    if not gated_names:
        print(f"FAIL: no block-engine or threaded benchmarks in baseline "
              f"{baseline_path}")
        return 1
    failed = False
    for name in gated_names:
        engine = gated_suffix(name).lstrip("_")
        base = baseline[name]
        got = fresh.get(name)
        if got is None:
            print(f"FAIL: {name}: {engine}-engine benchmark present in "
                  f"baseline but missing from fresh run (did bench_simspeed "
                  f"drop the --engine {engine} spec?)")
            failed = True
            continue
        abs_ratio = got / base if base else float("inf")
        line = f"{name}: baseline {base:.1f} -> fresh {got:.1f} sim-MIPS ({abs_ratio:.2f}x)"
        if engine == "threaded":
            line += f" [num_cpus: baseline {base_cpus} -> fresh {fresh_cpus}]"
            if base_cpus != fresh_cpus:
                # Threaded speed scales with host cores: neither the absolute
                # value nor the paired ratio carries across core counts.
                print(f"{line} FAIL (baseline recorded on {base_cpus} cores, "
                      f"this run has {fresh_cpus}: re-record)")
                failed = True
                continue
        if got >= base * (1.0 - tolerance):
            print(f"{line} ok")
            continue
        # Absolute check failed; arbitrate with the machine-independent
        # paired engine ratio.
        ref = PAIRED_REFERENCE[gated_suffix(name)].lstrip("_")
        pair = f"{engine}/{ref}"
        base_er = engine_ratio(baseline, name)
        fresh_er = engine_ratio(fresh, name)
        if base_er is None or fresh_er is None:
            print(f"{line} FAIL (more than {tolerance:.0%} below baseline; "
                  f"no {ref}-engine pair to normalize against)")
            failed = True
        elif fresh_er >= base_er * (1.0 - tolerance):
            print(f"{line} ok (absolute below baseline, but {pair} ratio "
                  f"held: {base_er:.2f}x -> {fresh_er:.2f}x — slower machine, "
                  f"not a regression)")
        else:
            print(f"{line} FAIL ({pair} ratio collapsed: "
                  f"{base_er:.2f}x -> {fresh_er:.2f}x)")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
