#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload fig2_cold --seed 1 --seconds 15 --trace 0

The engine libraries (src/) and the binary (perfbench/*.cc) are compiled with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root); later runs rebuild incrementally. The
binary's JSON result is the last line of stdout; build output goes to stderr.
The exit code is the binary's: 0 on success, 1 when a correctness check
failed, 2 on a usage, build or set-up error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fig2_cold", "scan_warm", "oltp_wal")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


_children = []


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _on_signal(signum, frame):
    for proc in _children:
        _kill(proc)
    sys.exit(128 + signum)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code. On a
    timeout, or when this script is interrupted or terminated, the whole
    group (compilers under cmake included) is killed and waited for."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    _children.append(proc)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise
    finally:
        _children.remove(proc)


def build(out):
    """Configures (once) and builds elephant_perf; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources (src/) not found next to perfbench/")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run(["cmake", "--build", out, "--target", "elephant_perf", "-j", jobs],
           BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        raise RuntimeError("cmake build failed")
    return os.path.join(out, "elephant_perf")


def main():
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", traces]
    try:
        return run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % args.workload, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
