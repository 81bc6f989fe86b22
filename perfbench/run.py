#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <keystroke|parse|grammar_edit|cold_start>
                             --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The first call configures and builds the
library from ../src together with the harness (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. --self-test builds and runs the generator tests
instead. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["keystroke", "parse", "grammar_edit", "cold_start"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    corpus = os.path.join(ROOT, "tests", "data", "corpus")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Ipg.h")) or \
            not os.path.isdir(corpus):
        fail(f"no library sources under {ROOT}; run from a full checkout")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    work_dir = os.path.join(out_root, "work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.self_test:
            exe = build(build_dir, "perfbench_gen_test")
            return subprocess.run([exe, corpus]).returncode
        exe = build(build_dir, "ipg_perfbench")
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--corpus-dir", corpus, "--work-dir", work_dir]
        if args.trace:
            traces = os.path.join(out_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-file",
                    os.path.join(traces, f"{workload}-{args.seed}.json")]
        sys.stdout.flush()
        status = status or subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
