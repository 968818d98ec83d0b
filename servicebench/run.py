#!/usr/bin/env python3
"""Builds and runs the query-service benchmark.

    python3 servicebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
ecrpq library and the load generator from source into .bench_build/
(build output goes to stderr); later runs only re-check the build. The
load generator's detail line and result line are relayed to stdout, the
result line last. `--workload all` runs every workload, each in its own
process, and prints one JSON object holding all result lines.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servicebench")
WORKLOADS = ["cold_mixed", "warm_repeat", "read_write", "parallel_boolean"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servicebench: no ecrpq sources next to the benchmark "
                 "(expected src/CMakeLists.txt at the repository root)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "servicebench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "servicebench")


def run_one(binary, args, workload):
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{args.seed}.jsonl")]
    # ECRPQ_THREADS stays as the caller has it (unset when deployed), so
    # routes that ignore the service's pool size behave as in production.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"servicebench: build failed: {err}")

    if args.workload != "all":
        code, lines = run_one(binary, args, args.workload)
        if not lines:
            sys.exit(f"servicebench: {args.workload} printed nothing "
                     f"(exit {code})")
        print("\n".join(lines), flush=True)
        return code

    results, worst = {}, 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, args, workload)
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        results[workload] = json.loads(lines[-1]) if lines else None
        worst = worst or code or (0 if lines else 1)
    print(json.dumps(results), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
