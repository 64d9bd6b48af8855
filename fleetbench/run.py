#!/usr/bin/env python3
"""Build the fleet benchmark from source and run it once.

Run from the root of the repository:

    python3 fleetbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Every run configures and builds fleetbench/ (and the nvsys library it links)
into .bench_build/fleetbench; after the first run both steps only check that
nothing changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit status is the
benchmark's, or 1 when the build fails or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *generator],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"fleetbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "fleetbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans",
                    os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"fleetbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
