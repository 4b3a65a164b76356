#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload road|scalefree|serve --seed N \
        --seconds S --trace 0|1 [--engines A,B,...]
    python3 perfbench/run.py --selftest

Run from the repository root. The driver is built with CMake into
$CARGO_TARGET_DIR (default .bench_build); build output goes to stderr,
so the last line on stdout is the run's JSON result. Generated graph
files and traces go to .bench_out/.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
