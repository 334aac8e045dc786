#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library sources of this checkout) into .bench_build, then runs one workload
and passes its output through; the last stdout line is the JSON result.

  python3 perfbench/run.py --workload incr-qpr --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --check-gate

--check-gate is the correctness-gate self-test: it runs incr-qpr and
serve-2wcc with one batch's result corrupted on purpose and exits 0 only if
both runs report failed ops and exit non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "itg_perfbench")
WORKLOADS = ("incr-qpr", "incr-tc", "serve-2wcc")
RUN_TIMEOUT_S = 175


def build():
    """Configures (first time) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "itg_perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(workload, seed, seconds, trace, inject=False, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if inject:
        cmd.append("--inject-corruption")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None


def check_gate():
    ok = True
    for workload in ("incr-qpr", "serve-2wcc"):
        proc = run(workload, 1, 30, False, inject=True, capture=True)
        if proc is None:
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        caught = (proc.returncode != 0 and not result["correct"]
                  and result["failed"] > 0)
        print(f"{workload}: injected corruption "
              f"{'caught' if caught else 'NOT caught'} "
              f"(exit {proc.returncode}, failed {result['failed']} of "
              f"{result['attempted']} ops)")
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-gate", action="store_true")
    args = ap.parse_args()
    if not args.check_gate and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.check_gate:
        return check_gate()
    proc = run(args.workload, args.seed, args.seconds, args.trace == 1)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
