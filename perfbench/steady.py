#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json for run_seconds on every workload with
seeds 1-10, interleaving workloads within each seed so host drift spreads
over all of them, and reports per end-to-end metric the median and the
spread (interquartile distance over the median, from statistics.quantiles
with n=4) next to the metric's bound.

    python3 perfbench/steady.py [--raw]

Run from the repository root. A spread above a third of its bound is
flagged, and one above its bound is counted; `setup_s` is no exception.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_one(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("# host:")), "")
    return result, host


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--raw", action="store_true", help="also print every run's value")
    raw = p.parse_args().raw
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    values = {w: {} for w in names}
    for seed in SEEDS:
        for w in names:
            result, host = run_one(bench["command"], w, seed, bench["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: {host}", flush=True)

    print(f"\n{'workload':<14} {'metric':<12} {'median':>14} {'spread':>8} {'bound':>6}")
    worst, over = 0.0, 0
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = values[w][name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            worst = max(worst, spread / bound)
            over += spread > bound
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"{w:<14} {name:<12} {med:>14.6g} {spread:>8.4f} {bound:>6}{flag}")
            if raw:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    print(f"\nlargest spread as a share of its bound: {worst:.3f}; "
          f"spreads above their bound: {over}")


if __name__ == "__main__":
    main()
