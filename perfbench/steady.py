#!/usr/bin/env python3
"""Steadiness self-check: run one workload repeatedly, print each metric's
median and spread.

    python3 perfbench/steady.py --workload nba-batch [--runs 10] [--trace 0]
    python3 perfbench/steady.py --workload nba-batch --trace 1 --repeat-seed 7

Run from the repository root. The command and run length come from
BENCHMARK.json. Each run gets its own seed (first-seed, first-seed + 1, ...).
The spread of a metric is the distance between the first and third
quartiles of its values, as statistics.quantiles(values, n=4) gives them, as
a share of their median; for an end-to-end metric it is printed beside its
bound and a third of it, the target the benchmark is tuned to.

With --repeat-seed S every run uses seed S instead, and the per-layer
counters (units 1/row, B and count) must come out identical in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--repeat-seed", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.repeat_seed if args.repeat_seed is not None else args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"run {i} (seed {seed}) exited with {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"run {i} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"({share:.6f})", flush=True)
        results.append(result)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    print(f"\n{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound/3")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = f"{bound:.3f}/{bound / 3:.3f}"
            if name != "setup_s" and spread > bound:
                note += "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                note += "  over a third"
        print(f"{name:<34} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f}  {note}")
        if args.repeat_seed is not None and first["unit"] in ("1/row", "B", "count"):
            if len(set(values)) != 1:
                print(f"  counter {name} does not repeat: {values}")
                ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
