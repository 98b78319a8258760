#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

usage: python3 fcmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The repository's root CMake build is
configured once under $CARGO_TARGET_DIR (default .bench_build) with
fcmbench/hook.cmake as CMAKE_PROJECT_INCLUDE, and only the fcmbench target is
built. Build output goes to stderr; the program's stdout is passed through, so
its last line is the JSON result. The exit status is the program's: 0 when
every output check passed, 1 when one failed, 2 on a usage or runtime error.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("short_epoch", "capture_cached", "network_agg")


def build(root: str, build_dir: str) -> str:
    hook = os.path.join(root, "fcmbench", "hook.cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", root, "-B", build_dir, f"-DCMAKE_PROJECT_INCLUDE={hook}"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fcmbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fcmbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="inputs 64x smaller (the smoke test)")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans", os.path.join(span_dir, f"{args.workload}-{args.seed}.jsonl")]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
