#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload repeatedly, each run with another seed, and prints
per end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json. With --sets 2 it repeats the whole
set with the same seeds and prints how far the second median moved from
the first, in the direction that counts as worse, against the bound.
The share of failed operations must be the same in every run.

Usage (from the repository root):

    python3 cedarbench/steady.py [--runs 10] [--sets 1]
                                 [--workloads perfect22,artifacts]
                                 [--json OUT.json]

Runs use seeds 1..runs and BENCHMARK.json's run_seconds.

Exit status: 0 when every spread is within its bound, every second
median is within its bound of the first, and the failed share never
changes; 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))

    ok = True
    record = {}
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                r = run_once(spec, workload, seed, seconds)
                runs.append(r)
                print(f"  {workload} set {s + 1} seed {seed}: attempted {r['attempted']}, "
                      f"failed {r['failed']}", file=sys.stderr)
            sets.append(runs)
        record[workload] = sets

        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"\n{workload}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  <-- differs between runs"))
        ok &= len(shares) == 1
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'/bound':>7}" + ("  2nd-vs-1st" if args.sets == 2 else ""))
        for metric, (bound, better) in bounds.items():
            first = [r["metrics"][metric]["value"] for r in sets[0]]
            med, q1, q3, sp = spread(first)
            line = (f"  {metric:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{sp:>8.2%} {bound:>6.2f} {sp / bound:>7.2f}")
            ok &= sp <= bound
            if args.sets == 2:
                second = statistics.median(r["metrics"][metric]["value"] for r in sets[1])
                worse = (second - med) / med if better == "lower" else (med - second) / med
                line += f"  {worse:+8.2%}"
                ok &= worse <= bound
            print(line)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
