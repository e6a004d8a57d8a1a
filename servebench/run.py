#!/usr/bin/env python3
"""Builds the service benchmark out of tree and runs one workload.

Usage, from the root of a checkout:
    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library under src/ and the benchmark are compiled in Release into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench); the first
build also runs the open-loop generator self-test. The benchmark's stdout is
passed through, so its last line is the result JSON. Build output and
progress go to stderr. Exits non-zero, printing no result, when the build,
the self-test or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout or on our own termination the
    child is killed and reaped, so no process outlives this script."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode


def build(bench_dir, build_dir):
    if not os.path.isdir("src"):
        log("no src/ directory here: run from the root of a checkout")
        return False
    os.makedirs(build_dir, exist_ok=True)
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j4"],
    ]
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    selftest = os.path.join(build_dir, "generator_selftest")
    marker = os.path.join(build_dir, "selftest.ok")
    stamp = str(os.stat(selftest).st_mtime_ns)
    if os.path.exists(marker) and open(marker).read() == stamp:
        return True
    if run([selftest], 60, stdout=sys.stderr, stderr=sys.stderr) != 0:
        log("generator self-test failed")
        return False
    with open(marker, "w") as f:
        f.write(stamp)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "servebench")
    if not build(bench_dir, build_dir):
        return 2
    cmd = [
        os.path.join(build_dir, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(out_root, "work"),
    ]
    return run(cmd, RUN_TIMEOUT_S, stdout=sys.stdout, stderr=sys.stderr)


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so run() reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
