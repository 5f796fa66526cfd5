#!/usr/bin/env python3
"""Builds the IOCov benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite-iotb --seed 1 --seconds 20 --trace 0

--trace 0 runs the untraced binary and prints the end-to-end metrics.
--trace 1 runs the untraced binary for half the time (for the baseline
events/s and the raw.* figures, timed without the host-speed
adjustment) and the traced binary for the other half, and prints the
per-layer metrics, including bench.trace_overhead. Progress, input
fingerprints and every metric go to stderr; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.

The binaries build into $CARGO_TARGET_DIR (default perfbench/target).
Inputs and serve state live in <target>/perfbench-work/<pid> and are
removed afterwards; the traced run's Chrome trace-event file is kept in
<target>/perfbench-traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARIES = ("perfbench", "perfbench-traced")
WORKLOADS = ("suite-iotb", "harness-jsonl", "serve-streams", "suite-live")
# Host-speed-unadjusted figures the untraced binary prints after the
# end-to-end metrics; they are per-layer metrics.
RAW = ("raw.events_per_s", "raw.stream_s_p50")
# The measuring children together must end inside the 180 s a run may
# take (a first run that builds may take longer).
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 870


def build():
    """Builds both binaries; returns {name: executable path}."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "--bins",
        "--message-format=json-render-diagnostics",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=BUILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({done.returncode})")
    exes = {}
    for line in done.stdout.decode().splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        name = msg.get("target", {}).get("name")
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") and name in BINARIES:
            exes[name] = msg["executable"]
    if set(exes) != set(BINARIES):
        raise SystemExit(f"perfbench: build produced {sorted(exes)}, expected {list(BINARIES)}")
    return exes


def run_child(exe, args, deadline):
    """Runs one binary, killed at `deadline`; returns its result object
    (its last stdout line)."""
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run([exe] + args, stdout=subprocess.PIPE, timeout=timeout, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {os.path.basename(exe)} exited with {done.returncode}")
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {os.path.basename(exe)} printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    exes = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    target = os.path.dirname(os.path.dirname(exes["perfbench"]))
    # Relative to the working directory: the serve socket lives in here,
    # and unix socket paths are limited to about 100 bytes.
    work = os.path.relpath(os.path.join(target, "perfbench-work", str(os.getpid())))
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    try:
        if opts.trace == 0:
            result = run_child(exes["perfbench"], common + [
                "--seconds", str(opts.seconds), "--work-dir", os.path.join(work, "plain")], deadline)
            for name in RAW:
                del result["metrics"][name]
        else:
            # Neither half reports setup_s, so each sets up once.
            half = str(opts.seconds / 2)
            plain = run_child(exes["perfbench"], common + [
                "--seconds", half, "--setup-reps", "1",
                "--work-dir", os.path.join(work, "plain")], deadline)
            baseline = plain["metrics"]["events_per_s"]["value"]
            trace_out = os.path.join(target, "perfbench-traces", f"{opts.workload}-seed{opts.seed}.json")
            result = run_child(exes["perfbench-traced"], common + [
                "--seconds", half, "--setup-reps", "1", "--work-dir", os.path.join(work, "traced"),
                "--trace-out", os.path.relpath(trace_out),
                "--baseline-events-per-s", repr(baseline)], deadline)
            result["correct"] = result["correct"] and plain["correct"]
            result["attempted"] += plain["attempted"]
            result["failed"] += plain["failed"]
            result["metrics"]["bench.failed_ratio"]["value"] = result["failed"] / result["attempted"]
            for name in RAW:
                result["metrics"][name] = plain["metrics"][name]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except subprocess.TimeoutExpired as e:
        sys.exit(f"perfbench: timed out: {e}")
