#!/usr/bin/env python3
"""Steadiness evidence for the benchmark's bounds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads library,path]
    python3 perfbench/steadiness.py --seeds 1 --repeats 3 --trace 1

Runs perfbench/run.py once per (workload, seed, repeat) and prints, per
workload and metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json and a third of it, and each run's host steal (the share
of the host's CPU time the hypervisor took during the run, from the
run's "host:" note). With --repeats > 1 it also checks
that the deterministic outputs repeat exactly on one seed. Exits 1 when
a run fails, a spread exceeds its bound, or a deterministic output
moves.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Outputs that are a pure function of the seed.
DETERMINISTIC = {
    "lvf2_binning_x", "lvf2_cdf_rmse_x", "core.fit.em_iterations",
    "core.refit.em_iterations", "core.lvf2_yield_x", "serve.full_computes",
    "spice.samples", "ssta.sum_calls", "cells.entries",
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    doc = json.loads(lines[-1])
    if not doc["correct"] or doc["failed"] != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    host = [l for l in lines if l.startswith("host:")]
    steal = host[0].split("(")[-1].split(" %")[0] if host else "n/a"
    return {k: v["value"] for k, v in doc["metrics"].items()}, steal


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            for rep in range(args.repeats):
                metrics, steal = run(workload, seed, spec["run_seconds"],
                                     args.trace)
                runs.append((seed, metrics, steal))
        print("\n### %s (%d runs, seeds %s, trace %d)\n" % (
            workload, len(runs), args.seeds, args.trace))
        if args.trace == 0:
            print("| seed | " + " | ".join(runs[0][1]) + " | host steal % |")
            print("|---" * (len(runs[0][1]) + 2) + "|")
            for seed, m, steal in runs:
                print("| %d | " % seed +
                      " | ".join("%.6g" % v for v in m.values()) +
                      " | %s |" % steal)
            print()
        print("| metric | median | Q1 | Q3 | spread | bound | bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for name in runs[0][1]:
            values = [m[name] for _, m, _ in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            mark = ""
            if bound is not None and spread > bound:
                mark, ok = " **over bound**", False
            print("| %s | %.6g | %.6g | %.6g | %.4f%s | %s | %s |" % (
                name, med, q1, q3, spread, mark,
                "" if bound is None else bound,
                "" if bound is None else "%.4f" % (bound / 3)))
            if args.repeats > 1 and name in DETERMINISTIC:
                for seed in seeds:
                    same_seed = {m[name] for s, m, _ in runs if s == seed}
                    if len(same_seed) != 1:
                        print("\n%s moved across repeats of seed %d: %s" % (
                            name, seed, sorted(same_seed)))
                        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
