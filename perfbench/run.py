#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness (perfbench/*.cpp) and the simulator library (src/) are compiled
into .bench_build/perfbench with CMake, optimized.  Build output goes to
stderr; the harness's own stdout is passed through, and its last line is the
JSON result.  Traced runs also write their spans as a Chrome trace file
under .bench_build/perfbench/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds the harness; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        try:
            subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=True)
            configure += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
    for command in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return os.path.exists(BINARY)


def option(args, flag):
    """The value following `flag` in args, or None."""
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def main(args):
    try:
        built = build()
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY] + args
    if option(args, "--trace") == "1" and option(args, "--trace-file") is None:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}.json"
        command += ["--trace-file", os.path.join(traces, name)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
