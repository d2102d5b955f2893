#!/usr/bin/env python3
"""Sensitivity check: interleaved run pairs of one workload with an
environment override against the default, alternating which side runs
first, all on one seed.  Reports each side's median and quartiles of a
metric, how many pairs the default won, and whether the override reads
worse than the default by more than the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 pmbench/sensitivity.py --pairs 5 [--workload serve_solve]
        [--metric ops_per_s] [--env PM_CHUNK_BYTES=64] [--seed 191013386]
"""

import argparse
import json
import os
import statistics

from spread import run_once


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--workload", default="serve_solve")
    ap.add_argument("--metric", default="ops_per_s")
    ap.add_argument("--env", default="PM_CHUNK_BYTES=64")
    ap.add_argument("--seed", type=int, default=191013386)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    spec = next(m for m in bench["end_to_end"] if m["name"] == a.metric)
    key, value = a.env.split("=", 1)
    base_env = {k: v for k, v in os.environ.items() if k != key}
    override_env = dict(base_env, **{key: value})
    sides = {"default": [], a.env: []}
    for i in range(a.pairs):
        order = [("default", base_env), (a.env, override_env)]
        if i % 2:
            order.reverse()
        for name, env in order:
            r = run_once(bench["command"], a.workload, a.seed, a.seconds, env)
            if not r["correct"]:
                raise SystemExit(f"{name}: incorrect result")
            sides[name].append(r["metrics"][a.metric]["value"])
            print(f"pair {i} {name:20s} {a.metric} = {sides[name][-1]:.6g}", flush=True)
    higher = spec["better"] == "higher"
    wins = sum((d > o) if higher else (d < o) for d, o in zip(sides["default"], sides[a.env]))
    meds = {}
    for name, vals in sides.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        meds[name] = med
        print(f"{name:20s} median {med:.6g} quartiles [{q1:.6g}, {q3:.6g}] {spec['unit']}")
    d, o = meds["default"], meds[a.env]
    worse = (d - o) / d if higher else (o - d) / d
    print(f"default better in {wins}/{a.pairs} pairs; {a.env} reads worse by "
          f"{worse:.4f} of the default median (bound {spec['bound']}): "
          f"{'DETECTED' if worse > spec['bound'] else 'NOT DETECTED'}")


if __name__ == "__main__":
    main()
