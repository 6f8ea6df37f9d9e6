#!/usr/bin/env python3
"""Run one workload several times, each with another seed, and report spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload <name> --runs <k> [--first-seed <s>]

Each run measures for BENCHMARK.json's run_seconds, the run length its bounds
are set for. For each end-to-end metric it prints the median and the
quartiles of the k values (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median. A metric whose spread exceeds its bound in BENCHMARK.json
is flagged OVER, one whose spread exceeds a third of its bound is flagged
WIDE. It also checks that every run
reports the same share of failed operations and a correct result. The summary
is written to .bench_build/results/repeat-<workload>.json. Exit code 1 when a
run fails, is incorrect, or a spread is OVER.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    bad = False
    for i in range(a.runs):
        seed = a.first_seed + i
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if r.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, r.returncode))
            bad = True
            continue
        res = json.loads(r.stdout.strip().splitlines()[-1])
        runs.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]),
              flush=True)
        bad |= not res["correct"]

    if len(runs) < 2:
        print("fewer than two runs finished")
        sys.exit(1)
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    print("failed share: %s" % ", ".join(sorted(str(s) for s in shares)))
    if len(shares) != 1:
        print("  the failed share differs between runs")
        bad = True

    summary = {}
    print("%-20s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else ""
        bad |= flag == "OVER"
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
        print("%-20s %14.6g %14.6g %14.6g %7.2f%% %6.1f%% %s" % (name, med, q1, q3, 100 * spread, 100 * bound, flag))

    os.makedirs(os.path.join(ROOT, ".bench_build", "results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "results", "repeat-%s.json" % a.workload), "w") as fh:
        json.dump({"workload": a.workload, "seconds": seconds, "first_seed": a.first_seed,
                   "runs": len(runs), "metrics": summary}, fh, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
