#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end benchmark of the schedule service.

    python3 bench_e2e/run.py --workload cold-synth --seed 1 --seconds 8 \
        --trace 0

Run from the root of the source tree. The benchmark and the a2a library are
built from source into $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only re-check the build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-synth", "serve-mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("CMakeLists.txt",
                   os.path.join("src", "service", "server.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to {os.path.basename(HERE)}/: "
                 "run from a full checkout of the a2a sources")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "bench_e2e")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch-dir", build_dir]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
