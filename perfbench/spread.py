#!/usr/bin/env python3
"""Runs one workload several times and reports each metric's median and
spread (interquartile distance over median), per set of runs and, with
more than one set, the gap between the first set's median and each later
one's, against the metric's bound in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--sets 1]
        [--first-seed 1] [--same-seed] [--seconds S] [--trace 0]

A set runs seeds first-seed, first-seed+1, ... (or first-seed every time
with --same-seed, which leaves only run-to-run noise). --seconds defaults
to run_seconds from BENCHMARK.json. A run that fails or reports
`"correct": false` stops the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def one_set(args, label):
    values = {}
    for k in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else k)
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return None
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["perfbench"] if len(lines) > 1 else {}
        print(f"{label} seed {seed}: correct={result['correct']} "
              f"digest={detail.get('results_digest')} "
              + " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
              flush=True)
        if not result["correct"]:
            return None
        for n, v in result["metrics"].items():
            values.setdefault(n, []).append(v["value"])
    return values


def spread(vs):
    med = statistics.median(vs)
    q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
    return med, (q[2] - q[0]) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    sets = []
    for s in range(args.sets):
        values = one_set(args, f"set {s + 1}")
        if values is None:
            return 1
        sets.append(values)

    print(f"{args.workload}: {args.sets} set(s) of {args.runs} runs, {args.seconds} s each")
    for name in sets[0]:
        bound = BOUNDS.get(name)
        stats = [spread(v[name]) for v in sets]
        cols = "  ".join(f"median {m:.6g} spread {sp:.4f}" for m, sp in stats)
        gaps = " ".join(f"{(m - stats[0][0]) / stats[0][0]:+.4f}" for m, _ in stats[1:])
        tail = f"  gap {gaps}" if gaps else ""
        tail += f"  bound {bound}" if bound is not None else ""
        print(f"  {name:22s} {cols}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
