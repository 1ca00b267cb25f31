#!/usr/bin/env python3
"""Build the e2ebench binary from the enclosing checkout, then run it.

    python3 e2ebench/run.py --workload fleet-ip --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test      # build and run the checker tests

Run from the root of the checkout. The build tree is .bench_build/ (or
$CARGO_TARGET_DIR when set); every file a run writes lives under it. The
last line of standard output is the benchmark's JSON result; build logs
go to standard error.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
# A run measures for --seconds, then checks its output; it must never
# outlive the three-minute budget of one benchmark invocation.
RUN_TIMEOUT_S = 170


def build(targets):
    # Configure until a build file exists: a configure that failed half
    # way leaves a cache but nothing to build with.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    self_test = "--self-test" in sys.argv[1:]
    try:
        build(["e2ebench_check_tests"] if self_test else ["e2ebench"])
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if self_test:
        cmd = [os.path.join(BUILD, "e2ebench_check_tests")]
    else:
        out_dir = os.path.join(BUILD, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [os.path.join(BUILD, "e2ebench"), "--out-dir",
               os.path.relpath(out_dir, ROOT)] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded its time budget", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
