#!/usr/bin/env python3
"""Steadiness mode: runs every workload (or the ones named) once per seed
and prints, for every end-to-end metric (per-layer with --trace 1), its
unit, median, quartiles and spread (the distance between the quartiles
as a share of the median) next to the metric's bound in BENCHMARK.json.
Run it from the root of a checkout:

    python3 perfbench/steady.py --seeds 1,2,3,4,5 [--workloads a,b] [--seconds N] [--trace 1]
    python3 perfbench/steady.py --seeds 1-10 --second-seeds 11-20

The bounds in BENCHMARK.json are set from this output: a spread should
stay below a third of its bound. With --second-seeds it runs a second
set of the same commit and prints, per workload and metric, both
medians and the gap by which the second is worse than the first, as a
share of the first, next to the bound. It also checks that every run of
a workload fails the same share of its operations.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


def seed_list(text):
    """Parses "1,2,3" or "1-10"."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(wl, seeds, args):
    """Runs wl once per seed; returns {metric: [values]} and the failed shares."""
    values, shares = {}, set()
    for seed in seeds:
        acct, res = run_once(wl, seed, args.seconds, args.trace)
        print(acct, flush=True)
        if not res["correct"]:
            print(f"  {wl} seed {seed}: correct=false", flush=True)
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, shares


def summary(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--second-seeds", default="")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    units = {m["name"]: m["unit"] for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    sets = [seed_list(args.seeds)] + ([seed_list(args.second_seeds)] if args.second_seeds else [])
    worst_spread, worst_gap = 0.0, 0.0
    for wl in args.workloads.split(","):
        results = [run_set(wl, seeds, args) for seeds in sets]
        for n, (values, shares) in enumerate(results):
            print(f"== {wl}, set {n + 1} (seeds {sets[n][0]}..{sets[n][-1]}): "
                  f"{len(sets[n])} runs, failed shares {sorted(shares)}")
            print(f"   {'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for name in [m["name"] for m in metrics]:
                vs = values.get(name)
                if not vs:
                    print(f"   {name:34} missing")
                    continue
                med, q1, q3, spread = summary(vs)
                b = bounds.get(name)
                if b and name != "setup_s":
                    worst_spread = max(worst_spread, spread / b)
                print(f"   {name:34} {units[name]:>6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {b if b else '':>6}")
        if len(results) < 2:
            continue
        (v1, s1), (v2, s2) = results
        print(f"== {wl}: set 2 against set 1; failed shares equal: {s1 == s2}")
        print(f"   {'metric':34} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
        for name in [m["name"] for m in metrics]:
            if name not in v1 or name not in v2:
                continue
            m1, m2 = statistics.median(v1[name]), statistics.median(v2[name])
            gap = (m2 - m1) / m1 if m1 else 0.0
            if better[name] == "higher":
                gap = -gap
            b = bounds.get(name)
            if b:
                worst_gap = max(worst_gap, gap / b)
            print(f"   {name:34} {m1:12.4f} {m2:12.4f} {gap:9.3f} {b if b else '':>6}")
    if args.trace == 0:
        print(f"largest spread/bound outside setup_s: {worst_spread:.3f} (aim: below 0.333)")
        if len(sets) > 1:
            print(f"largest worse-by/bound: {worst_gap:.3f} (must stay below 1)")


if __name__ == "__main__":
    main()
