#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_system --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Builds perfbench/ (and the library it links from src/) into .bench_build/
with CMake on first use, then runs one workload. Standard output ends with
a `machine` line and the JSON result; with --workload all, one
"name: result" line per workload follows instead, and the exit code is
non-zero if any run failed. Build logs go to standard error. Span files of
traced runs go to .bench_build/traces/.

The metric names, units and their order come from BENCHMARK.json. At seed
1 the outputs must also match the fingerprints in perfbench/golden.txt.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("paper_system", "fleet_failover_1k", "service_churn_256")
GOLDEN_SEED = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def goldens():
    table = {}
    with open(os.path.join(HERE, "golden.txt")) as lines:
        for line in lines:
            fields = line.split()
            if len(fields) == 3 and not line.startswith("#"):
                table[(fields[0], int(fields[1]))] = fields[2]
    return table


def run_workload(workload, args, spec):
    """Runs the binary once; returns (result, machine line, exit code), or
    (None, None, code) when it ended without reporting its checks."""
    argv = [BINARY, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-dir", TRACES, "--smoke", str(args.smoke)]
    if args.perturb:
        argv += ["--perturb", args.perturb]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    fingerprint, machine, checks, measured = "", None, None, {}
    for line in done.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key == "fingerprint":
            fingerprint = rest.strip()
        elif key == "machine":
            machine = line
        elif key == "metric":
            name, value = rest.split()
            measured[name] = float(value)
        elif key == "checks":
            checks = [int(v) for v in rest.split()]
    if checks is None:
        print(f"perfbench: {workload} ended without a result "
              f"(exit code {done.returncode})", file=sys.stderr)
        return None, None, done.returncode or 1
    attempted, failed = checks

    def problem(message):
        nonlocal failed
        failed += 1
        print(f"perfbench: FAILED CHECK: {message}", file=sys.stderr)

    expected = goldens().get((workload, args.seed))
    if args.seed == GOLDEN_SEED and not args.smoke:
        if expected is None:
            problem(f"no committed golden for {workload}")
        elif fingerprint != expected:
            problem(f"{workload}: fingerprint {fingerprint} differs from "
                    f"the golden {expected}")
    print(f"perfbench: fingerprint {workload} {args.seed} {fingerprint}",
          file=sys.stderr)

    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in measured:
        if name not in known:
            problem(f"metric missing from BENCHMARK.json: {name}")
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name = entry["name"]
        value = measured.get(name)
        if value is None:
            # A per-layer metric of a layer the workload does not run reads 0.
            if not args.trace:
                problem(f"metric not measured: {name}")
            value = 0.0
        if not math.isfinite(value):
            problem(f"non-finite metric: {name}")
            value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    correct = failed == 0 and done.returncode == 0
    result = {"correct": correct, "attempted": max(attempted, failed, 1),
              "failed": failed, "metrics": metrics}
    return result, machine, 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: tiny sizes, a broken traced loop.
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(TRACES, exist_ok=True)

    if args.workload != "all":
        result, machine, code = run_workload(args.workload, args, spec)
        if result is not None:
            print(machine)
            print(json.dumps(result))
        sys.exit(code)
    worst = 0
    for workload in WORKLOADS:
        result, _, code = run_workload(workload, args, spec)
        print(f"{workload}: {json.dumps(result)}", flush=True)
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
