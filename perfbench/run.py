#!/usr/bin/env python3
"""Builds and runs the MICCO benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src in Release mode) under $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed. Scratch
files (model, journal, socket, spans) go to <build root>/perfbench-run/.
The last line of standard output is the result JSON; build logs go to
standard error. Exits non-zero, without a result, when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-oversub", "batch-belady", "serve-journal")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds the benchmark binary. Returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4",
                    "--target", "micco_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "micco_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Relative to ROOT, where the binary runs: keeps the server's Unix
    # socket path short whatever the checkout's location.
    work_dir = os.path.relpath(
        os.path.join(build_root, "perfbench-run", args.workload), ROOT)
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.json"),
           "--work-dir", work_dir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    print(f"perfbench: ran {time.monotonic() - start:.1f} s", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
