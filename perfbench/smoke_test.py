#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale.

Run from the repository root:

  python3 perfbench/smoke_test.py

Records golden answers and a replay log for scale 0.05 into
.bench_build/smoke-data, then runs every workload for one second with
--trace 0 and --trace 1.  For each run it checks that the run is correct
with no failed operation, and that it emits exactly the metrics
BENCHMARK.json names, each finite and with its unit.  Exits non-zero on the
first problem.  Takes under a minute after the build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SCALE = "0.05"
DATA_DIR = os.path.join(ROOT, ".bench_build", "smoke-data")

def fail(message):
    print("smoke_test: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run_one(spec, workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", SCALE,
                 "--data-dir", DATA_DIR]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, proc.returncode,
                                              proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("%s trace=%d: correct=%s failed=%s\n%s" % (
            workload, trace, result["correct"], result["failed"],
            proc.stderr[-2000:]))
    if result["attempted"] < 1:
        fail("%s trace=%d attempted nothing" % (workload, trace))
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = result["metrics"]
    if set(got) != set(want):
        fail("%s trace=%d: missing %s, unexpected %s" % (
            workload, trace, sorted(set(want) - set(got)),
            sorted(set(got) - set(want))))
    for name, unit in want.items():
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s trace=%d: %s = %r" % (workload, trace, name, value))
        if got[name]["unit"] != unit:
            fail("%s trace=%d: %s has unit %r, want %r" % (
                workload, trace, name, got[name]["unit"], unit))
    print("ok  %-17s trace=%d  %d metrics, %d operations" % (
        workload, trace, len(got), result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(DATA_DIR, exist_ok=True)
    subprocess.run(RUN + ["--record", "--scale", SCALE, "--data-dir",
                          DATA_DIR], check=True, stdout=subprocess.DEVNULL)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            run_one(spec, workload, trace)
    print("smoke_test: all workloads emit every named metric")


if __name__ == "__main__":
    main()
