#!/usr/bin/env python3
"""Build the benchmark from source (if needed) and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload apps|postmortem|live --seed N \
        --seconds S --trace 0|1

The library sources in src/ and the program in perfbench/ are compiled into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with CMake in
Release mode; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result.
Every other argument is passed to the program unchanged (see main.cpp).
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                check=True, stdout=sys.stderr)
        jobs = str(os.cpu_count() or 2)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "clog2", "clog2.hpp")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
