#!/usr/bin/env python3
"""Steadiness report: run one workload N times, one seed per run, and print
for every metric its median, IQR/median and (max-min)/median.

  python3 perfbench/steadiness.py --workload serve --runs 10
  python3 perfbench/steadiness.py --workload poisson125 --runs 5 --trace 1

Run from the root of a pipescg checkout.  Seeds are first-seed,
first-seed+1, ...; --seconds defaults to BENCHMARK.json's run_seconds.  A
metric whose IQR/median exceeds its bound in BENCHMARK.json is flagged
OVER; one above a third of its bound is flagged "wide" (the benchmark aims to
stay below a third).  setup_s is reported like the rest, but its spread is
not held to its bound (only its median shift is).  Exits 1 when any run
fails or reports an incorrect result, or when a bounded metric is OVER.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_config():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("run failed (seed %d, exit %d)" % (seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    cfg = load_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in cfg["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in cfg["end_to_end"]}
    values = {}
    units = {}
    bad_runs = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, args.seconds, args.trace)
        if not res["correct"] or res["failed"]:
            bad_runs += 1
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]),
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    over = 0
    print("\n%-34s %-6s %14s %9s %9s %7s  flag" %
          ("metric", "unit", "median", "iqr/med", "rng/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if iqr > bound:
                flag, over = "OVER", over + 1
            elif iqr > bound / 3:
                flag = "wide"
        print("%-34s %-6s %14.6g %9.4f %9.4f %7s  %s" %
              (name, units[name], med, iqr, rng,
               "" if bound is None else "%.2f" % bound, flag))
    if bad_runs:
        print("%d run(s) reported failures or an incorrect result" % bad_runs)
    return 1 if (over or bad_runs) else 0


if __name__ == "__main__":
    sys.exit(main())
