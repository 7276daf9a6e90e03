#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload history-memory --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the pipetune libraries from src/) into .bench_build/;
later runs rebuild only what changed. The last line of standard output is
the result object: {"correct", "attempted", "failed", "metrics"}. A copy of
the run's per-pass detail, with its host block, is written to
.bench_build/results/. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pt_perfbench", "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "pt_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(BUILD_DIR, "scratch", tag),
           "--detail", os.path.join(results, tag + ".json"),
           "--source-id", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"pt_perfbench exited with {run.returncode}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
