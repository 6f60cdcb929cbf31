#!/usr/bin/env python3
"""Builds ligra_suite from this checkout and runs one workload of it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/suite (default .bench_build/suite,
relative to the repository root); graph files and the WAL go to a directory
under $CARGO_TARGET_DIR that is removed afterwards. Build output goes to
standard error, so the last line of standard output is the result object
ligra_suite prints. Exits non-zero, printing no result, when the build or
the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ligra_suite"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "suite")
    if not build(build_dir):
        print("run.py: building ligra_suite failed", file=sys.stderr)
        return 2

    tmp = os.path.join(out_root, "tmp-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "ligra_suite"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tmp", tmp]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: ligra_suite ran past %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
