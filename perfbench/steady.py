#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write a steadiness record.

Run from the root of the repository:

    python3 perfbench/steady.py --out perfbench/results/steadiness.json

For each workload BENCHMARK.json lists, it runs perfbench/run.py ten times
with tracing off, one seed each (--first-seed onwards, default 1), then
twice with tracing on. Every run measures BENCHMARK.json's run_seconds.
The record keeps, per workload, every run's value of each end-to-end
metric with their median, quartiles (statistics.quantiles, n=4) and spread
(interquartile range / median); every run's process.sys_frac,
runtime.inline_frac, failed_frac and, for the latency-bound workloads,
latency percentiles; and each traced run's trace.overhead_frac.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
TRACE_RUNS = 2


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    record = next(json.loads(l[len("record: "):]) for l in lines if l.startswith("record: "))
    return json.loads(lines[-1]), record


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the record here (JSON)")
    args = p.parse_args(argv)
    bench = benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for w in workloads:
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        metrics, per_run = {}, []
        for seed in seeds:
            result, record = run_once(w, seed, seconds, 0)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            per_run.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                **{k: v["value"] for k, v in record["extra"].items()},
                **{k: v["value"] for k, v in record["steadiness"].items()},
            })
            report.setdefault("nproc", record["nproc"])
            report.setdefault("commit", record["commit"])
            report.setdefault("config", record["config"])
            print(f"{w} seed={seed} " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in metrics.items()), flush=True)
        overhead = []
        for i in range(TRACE_RUNS):
            result, _ = run_once(w, seeds[-1] + 1 + i, seconds, 1)
            overhead.append(result["metrics"]["trace.overhead_frac"]["value"])
        entry = {"end_to_end": {k: summary(v) for k, v in metrics.items()},
                 "per_run": per_run, "trace.overhead_frac": overhead}
        report["workloads"][w] = entry
        print(f"{w}: " + "  ".join(
            f"{k} median={s['median']:.6g} spread={s['spread']:.4f}"
            for k, s in entry["end_to_end"].items()), flush=True)

    text = json.dumps(report, indent=1)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main(sys.argv[1:])
