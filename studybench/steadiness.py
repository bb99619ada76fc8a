#!/usr/bin/env python3
"""Runs the study benchmark once per seed and reports each metric's spread.

  python3 studybench/steadiness.py --workload scan_lossy --seeds 1-5 \
      [--trace 0] [--seconds N]

For every metric, setup_s included, it prints the median over the runs
and the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json. A benchmark is
steady when every spread stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    seconds = args.seconds or definition["run_seconds"]
    values = {}
    failed = 0
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={v:.6g}" for k, v in row.items()
                       if args.trace == 0), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    bounds = {m["name"]: m.get("bound") for m in definition["end_to_end"]}
    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        bound = bounds.get(name)
        print(f"{name:34} {statistics.median(series):14.6g} "
              f"{benchlib.spread(series):8.4f} "
              f"{'' if bound is None else bound:>6}")
    print(f"failed operations: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
