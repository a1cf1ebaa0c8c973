#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload ft_compile --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (which compiles the library from the checkout's
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the benchmark binary. Build output goes to stderr, so the last
line of stdout is the binary's result object. The exit code is the
binary's; a checkout without the program fails before any result prints.

The binary gets a determinism ledger keyed by its own content hash: runs of
the same build with the same workload and seed must agree exactly on
quality metrics and per-layer counts.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def content_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as binary:
        for block in iter(lambda: binary.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    checkout = os.path.dirname(source_dir)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(checkout, needed)):
            fail("no program to measure: %s is missing" % needed)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(checkout, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(source_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail("build failed: %s" % error)

    binary = os.path.join(build_dir, "perfbench")
    ledger = os.path.join(build_root, "perfbench-ledger", content_hash(binary))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--ledger", ledger]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
