#!/usr/bin/env python3
"""Builds h2bench from source and runs one benchmark workload.

Run from the repository root:

  python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 benchmark/run.py --smoke

The first call configures benchmark/ as a CMake project in .bench_build/cmake
(Release, invariant checks compiled out) and builds h2bench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is h2bench's JSON result. The metric names in that result must be exactly
the ones BENCHMARK.json lists for the mode; otherwise this script fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "h2bench")


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("run.py: no simulator sources here (CMakeLists.txt, src/); "
                 "run from the repository root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "benchmark", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "h2bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: building h2bench failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    build()
    if args.smoke:
        sys.exit(subprocess.run([BINARY, "--smoke"]).returncode)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    want = expected_metrics(args.trace)
    if got != want:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)))
        sys.exit(1)


if __name__ == "__main__":
    main()
