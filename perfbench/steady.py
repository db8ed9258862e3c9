#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads cold-mix,hot-repeat]

For each workload it runs the BENCHMARK.json command --runs times per set,
each run with another seed, and prints every end-to-end metric's median,
quartiles (statistics.quantiles, n=4) and spread: the distance between the
quartiles as a share of the median, next to the metric's bound. A spread
above a third of the bound is flagged. With --sets 2 it runs a second set
on fresh seeds and reports whether the two medians agree: the second may
not be worse than the first by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                runs.append(run_once(bench["command"], name, seed, bench["run_seconds"], 0))
                print(f"  {name} set {s + 1} seed {seed}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1].items())), flush=True)
            sets.append(runs)
        print(f"\n{name}: {args.runs} runs per set")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  steady")
        for m in bench["end_to_end"]:
            for s, runs in enumerate(sets):
                med, q1, q3, sp = spread([r[m["name"]] for r in runs])
                steady = sp <= m["bound"] / 3
                if m["name"] != "setup_s" and sp > m["bound"]:
                    ok = False
                print(f"  {m['name']:<16} {med:11.4f} {q1:11.4f} {q3:11.4f} {sp:7.3f} {m['bound']:6.2f}  "
                      f"{'yes' if steady else 'NO'}{'' if args.sets == 1 else f' (set {s + 1})'}")
            if args.sets == 2:
                m1 = statistics.median([r[m["name"]] for r in sets[0]])
                m2 = statistics.median([r[m["name"]] for r in sets[1]])
                w = worse_by(m1, m2, m["better"])
                agree = w <= m["bound"]
                ok = ok and agree
                print(f"  {'':<16} second median worse by {w:+.3f} (bound {m['bound']}): "
                      f"{'agree' if agree else 'DISAGREE'}")
    print("\nsteady and agreeing" if ok else "\nNOT steady or NOT agreeing")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
