#!/usr/bin/env python3
"""Builds the CAD benchmark from source and runs one workload.

    python3 perfbench/run.py --workload stream-wide --seed 1 --seconds 10 --trace 0

The last line of standard output is the workload's result, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.

    python3 perfbench/run.py --workload batch-smd --seed 1 --seconds 10 --repeat 10

runs the workload ten times on seeds 1..10 and prints every metric's median,
quartiles and quartile spread (the repeat mode).

The build goes to .bench_build/ at the root of the source tree, with the
repository's default build type and CAD_CHECK_LEVEL. Exit codes: 0 on
success, 1 when a correctness check failed, 2 on a usage error, 3 when the
build failed, 4 when the printed metrics disagree with BENCHMARK.json, 5 on
a timeout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "cad_perfbench")
WORKLOADS = ("stream-wide", "fleet-narrow", "batch-smd")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", "cad_perfbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 5, ""
    return done.returncode, done.stdout


def declared_metrics(trace):
    """The metric names and units BENCHMARK.json declares, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def matches_declaration(result, trace):
    declared = declared_metrics(trace)
    if declared is None:
        return True
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed == declared:
        return True
    print("printed metrics differ from BENCHMARK.json:", file=sys.stderr)
    for name in sorted(set(printed) ^ set(declared)):
        print(f"  {name}", file=sys.stderr)
    for name in sorted(set(printed) & set(declared)):
        if printed[name] != declared[name]:
            print(f"  {name}: unit {printed[name]} vs {declared[name]}",
                  file=sys.stderr)
    return False


def repeat(args):
    """Runs the workload on args.repeat consecutive seeds; prints spreads."""
    values = {}
    units = {}
    failed_shares = []
    for i in range(args.repeat):
        seed = args.seed + i
        code, stdout = run_once(args.workload, seed, args.seconds, args.trace)
        result = result_of(stdout) if code == 0 else None
        if result is None:
            print(f"seed {seed}: run failed with exit code {code}",
                  file=sys.stderr)
            return code or 1
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: done", file=sys.stderr)
    summary = {}
    print(f"{'metric':40s} {'unit':>8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/median':>10s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name]}
        print(f"{name:40s} {units[name]:>8s} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:10.4f}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many consecutive seeds and print "
                             "each metric's median and quartiles")
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 3
    if args.repeat > 1:
        return repeat(args)
    code, stdout = run_once(args.workload, args.seed, args.seconds, args.trace)
    result = result_of(stdout) if code in (0, 1) else None
    if result is None:
        return code or 1
    if not matches_declaration(result, args.trace):
        return 4
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
