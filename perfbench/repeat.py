#!/usr/bin/env python3
"""Runs the benchmark several times and prints median and quartiles.

    python3 perfbench/repeat.py --workload cold --runs 10 [--first-seed 1]
                                [--seconds 30] [--trace 0]

Each run uses the next seed. For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median -- the spread the bounds in BENCHMARK.json are
set against -- plus the share of failed operations over all runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    attempted = failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result" % seed)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d done" % seed, file=sys.stderr)

    print("%-34s %14s %14s %14s %8s  unit" %
          ("metric", "median", "q1", "q3", "spread"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print("%-34s %14.6g %14.6g %14.6g %8.4f  %s" %
              (name, med, q1, q3, spread, units[name]))
    print("runs %d, attempted %d, failed %d (share %.6g)" %
          (args.runs, attempted, failed, failed / max(1, attempted)))


if __name__ == "__main__":
    main()
