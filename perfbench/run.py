#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload requests_dyhsl --seed 1 \
        --seconds 30 --trace 0

The first run in a checkout configures and builds `serving_bench` (the
repository's `dyhsl_core` plus perfbench/serving_bench.cc) in
`.bench_build/`; later runs rebuild incrementally. The binary's output is
passed through, so the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Run records and spans go to
`.bench_out/`. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "serving_bench")
WORKLOADS = ("requests_dyhsl", "requests_metro", "fleet_tick")
RUN_LIMIT_S = 170.0    # one measured run, build excluded
BUILD_LIMIT_S = 850.0  # first build in a fresh checkout


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; True when it exits 0."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    return done.returncode == 0


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no repository sources next to perfbench/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_checked(cmd, deadline - time.monotonic()):
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    return run_checked(["cmake", "--build", BUILD_DIR, "--target",
                        "serving_bench", "-j", jobs],
                       deadline - time.monotonic())


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the binary is built from, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    if not build(start + BUILD_LIMIT_S):
        log("build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR,
           "--git-sha", git_sha() + "/src-" + source_digest()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark run failed (exit %d)" % done.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("unexpected result line: " + lines[-1])
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
