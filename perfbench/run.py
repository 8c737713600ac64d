#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench and
the instance data and span files to .bench_build/run; nothing is written
outside the checkout. Build output goes to stderr, so the last line of
stdout is the program's JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_BUILD, "perfbench")
WORKLOADS = ("analytics_row", "analytics_column", "oltp_mix")


def build(target):
    source = os.path.join(ROOT, "perfbench")
    subprocess.run(["cmake", "-S", source, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    # Engine scratch files (spill runs) honour TMPDIR; keep them inside.
    tmp = os.path.join(BENCH_BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        if args.selftest:
            program = build("perfbench_selftest")
            cmd = [program, os.path.join(BENCH_BUILD, "selftest")]
        else:
            program = build("perfbench")
            cmd = [program, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--work-dir", os.path.join(BENCH_BUILD, "run", args.workload)]
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
