#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload in two sets of runs, every run with its own seed, and
reports, for every end-to-end metric:

* each set's median;
* the spread of all runs: the distance between the first and third
  quartiles (statistics.quantiles, n=4) as a share of the median;
* whether the two sets' medians differ, in either direction, by more
  than the metric's bound, as a share of the first set's median.

A metric fails when its spread exceeds its bound or the two sets disagree
beyond the bound; it is flagged when its spread exceeds a third of its
bound. Seeds run from 1 upwards. Run from the repository root:

    python3 seqbench/steady.py --runs 5
    python3 seqbench/steady.py --workloads session_mixed --runs 3

Exits 1 when any metric fails or any run reports wrong answers.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    failed = False
    seed = 1
    for workload in workloads:
        sets = []
        for _ in range(2):
            results = []
            for _ in range(args.runs):
                r = run_once(spec, workload, seed, seconds)
                seed += 1
                if not r["correct"] or r["failed"]:
                    print(f"{workload} seed {seed - 1}: {r['failed']} of "
                          f"{r['attempted']} ops wrong")
                    failed = True
                results.append(r)
            sets.append(results)
        print(f"\n{workload} ({args.runs} runs per set, {seconds} s each)")
        print(f"  {'metric':<14}{'median A':>14}{'median B':>14}"
              f"{'|B-A|/A':>9}{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            differ = abs(mb - ma) / ma
            s = spread(a + b)
            verdict = "ok"
            if differ > bound:
                verdict = "FAIL: sets disagree"
            elif s > bound:
                verdict = "FAIL: spread"
            elif s > bound / 3:
                verdict = "unsteady (spread > bound/3)"
            failed |= verdict.startswith("FAIL")
            print(f"  {name:<14}{ma:>14.6g}{mb:>14.6g}{differ:>9.3f}"
                  f"{s:>9.3f}{bound:>7.2f}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
