#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports each end-to-end metric's median and quartile spread (the
distance between the first and third quartile as a share of the median)
against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 pmbench/spread.py --runs 10 [--workloads serve_solve,paper_batch]
        [--seed-base 1000] [--seconds 30]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, env):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    for workload in a.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(a.runs):
            r = run_once(bench["command"], workload, a.seed_base + i, a.seconds, os.environ)
            if not r["correct"] or r["failed"]:
                raise SystemExit(f"{workload} seed {a.seed_base + i}: incorrect result")
            for name in values:
                values[name].append(r["metrics"][name]["value"])
            print(workload, a.seed_base + i,
                  " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        for m in bench["end_to_end"]:
            med, s = spread(values[m["name"]])
            flag = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            print(f"  {workload:12s} {m['name']:16s} median {med:.6g} {m['unit']:8s} "
                  f"spread {s:.4f} bound {m['bound']} {flag}", flush=True)


if __name__ == "__main__":
    main()
