#!/usr/bin/env python3
"""Build and run the pipescg time-to-solution benchmark.

Run from the root of a pipescg checkout:

  python3 perfbench/run.py --workload poisson125 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds the benchmark (and the pipescg library
it links) under .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Exits non-zero, printing no result, when the build or the run
fails -- including in a directory that holds the benchmark but no pipescg
sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    cmds = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "perfbench_selftest", "-j", "4"],
    ]
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main(argv):
    build()
    if argv == ["--self-test"]:
        exe, args = os.path.join(BUILD, "perfbench_selftest"), []
    else:
        exe, args = os.path.join(BUILD, "perfbench"), argv
    try:
        done = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: exited with code %d" % done.returncode)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
