#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload large_solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds perfbench/ (and the library sources
it compiles) with CMake into .bench_build/perfbench, runs the benchmark's
self-test, then the benchmark binary.  The binary's stdout is passed
through; its last line is the JSON result.  Build logs go to stderr.  Any
build, self-test or run failure exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{' '.join(cmd)}: {e}")
        return False


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    return run_logged(["cmake", "--build", BUILD, "-j", jobs], 850)


def source_id():
    """The commit when run in a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()[:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "sha256:" + h.hexdigest()[:12]


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    if not run_logged([os.path.join(BUILD, "perfbench_selftest")], 60):
        log("self-test failed")
        return 1
    if args.selftest:
        return 0

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(BUILD, f"spans-{args.workload}.tsv"),
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"benchmark run failed: {e}")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited {proc.returncode} without a valid result")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
