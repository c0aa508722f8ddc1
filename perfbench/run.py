#!/usr/bin/env python3
"""Build and run the Lamellar benchmark (one workload, one seed).

Run from the root of the repository:

    python3 perfbench/run.py --workload histo_am --seed 1 --seconds 10 --trace 0

The workloads are histo_am, histo_array, gather_ro, gather_small and
am_pingpong (see perfbench/README.md); BENCHMARK.json gates three of them.
The benchmark is built from source with cargo into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). The
runtime's environment knobs (LAMELLAR_THREADS, LAMELLAR_AGG_THRESHOLD,
LAMELLAR_OP_BATCH, LAMELLAR_METRICS, LAMELLAR_NET_*) are removed from the
benchmark's environment, and each one removed is recorded in the run's
record. The last line printed is the result object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("histo_am", "histo_array", "gather_ro", "gather_small", "am_pingpong")
PINNED_ENV = (
    "LAMELLAR_THREADS",
    "LAMELLAR_AGG_THRESHOLD",
    "LAMELLAR_OP_BATCH",
    "LAMELLAR_METRICS",
    "LAMELLAR_NET_MODEL",
)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """Time allowed for one benchmark run: the measured phase, plus warm-up,
    nine world builds and the traced run's replays, with a wide margin."""
    return 2 * seconds + 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def commit_id():
    """The checked-out commit, or "unknown" outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(env):
    """Build the benchmark; returns the path of its executable."""
    if not os.path.isfile(MANIFEST):
        sys.exit("run.py: perfbench/Cargo.toml not found")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: cargo build did not finish within {BUILD_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"run.py: cargo build failed (exit {done.returncode})")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def main(argv):
    args = parse_args(argv)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    overridden = sorted(k for k in env if k in PINNED_ENV or k.startswith("LAMELLAR_NET_"))
    removed = {k: env.pop(k) for k in overridden}
    exe = build(env)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, "perfbench", "out"), "--commit", commit_id()]
    for k, v in removed.items():
        cmd += ["--env-overridden", f"{k}={v}"]
    timeout = run_timeout_s(args.seconds)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark did not finish within {timeout:g} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: benchmark exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"run.py: malformed result line: {lines[-1]}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
