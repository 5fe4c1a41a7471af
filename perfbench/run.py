#!/usr/bin/env python3
"""Builds and runs the KGQAn benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload cold_kgqa --seed 1 --seconds 6 --trace 0

Workloads: cold_kgqa, warm_zipf, sparql_replay, serve_open.  The last line
of standard output is the result object (correct, attempted, failed,
metrics); the line before it carries the run's provenance.

  python3 perfbench/run.py --record

re-records perfbench/data (golden answers and the SPARQL replay log) from
one cold_kgqa pass at scale 1.0; other scales need their own --data-dir.  The benchmark is built from source into .bench_build/
on first use, as an optimised (Release) build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "kgqan_perfbench")
DATA_DIR = os.path.join(HERE, "data")
WORKLOADS = ("cold_kgqa", "warm_zipf", "sparql_replay", "serve_open")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("KGQAn sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                   check=True, stdout=sys.stderr)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="KG and question-set scale (data is recorded "
                             "at 1.0)")
    parser.add_argument("--data-dir", default=DATA_DIR)
    parser.add_argument("--record", action="store_true",
                        help="re-record the golden answers and replay log")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if (args.record and args.scale != 1.0 and
            os.path.abspath(args.data_dir) == DATA_DIR):
        parser.error("the checked-in data is recorded at scale 1.0; "
                     "record other scales into another --data-dir")

    try:
        build()
    except subprocess.CalledProcessError as err:
        die("build failed: %s" % err)

    if args.record:
        os.makedirs(args.data_dir, exist_ok=True)
        cmd = [BINARY, "--record", "--data-dir", args.data_dir,
               "--scale", repr(args.scale)]
        sys.exit(subprocess.run(cmd).returncode)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--data-dir", args.data_dir,
           "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last output line is not JSON: " + lines[-1][:200])
    if set(result) != RESULT_KEYS:
        die("result keys are %s" % sorted(result))
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    sys.exit(0)


if __name__ == "__main__":
    main()
