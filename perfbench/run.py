#!/usr/bin/env python3
"""Benchmark launcher.

Builds the benchmark binary from source (CMake, Release) into
.bench_build/perfbench under the checkout root, then runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary's stdout is passed through; its last line is the JSON result.
Build output goes to stderr. Exits non-zero when the build fails, the
binary fails a correctness check, or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper_sweeps_spice", "population_analytic", "population_spice", "service_mix")
# A run measures for --seconds plus set-up and checks; anything past this
# is a hang, and the benchmark process is killed.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)  # retry configure next time
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
