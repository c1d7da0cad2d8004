#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-mem --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, and is
incremental. Build output goes to stderr; the benchmark's own output
goes to stdout, whose last line is the JSON result. The exit code is
the benchmark's (0 only when every simulated result matched its pinned
value), or 1 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench"]
    for attempt in range(2):
        ok = True
        for cmd in (configure, compile_):
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                ok = False
                break
        if ok:
            return True
        # A build directory configured for another source tree cannot be
        # reused; start it afresh once.
        if attempt == 0 and os.path.isdir(build_dir):
            shutil.rmtree(build_dir)
    return False


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["chain-mem", "staged-pdes", "sweep-obs"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        built = build(build_dir)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", ".bench_work", "--git-commit", git_commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
