#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads feed_cold,ingest_churn --seeds 1-10

Runs perfbench/run.py once per (workload, seed), from the repository root,
and prints for each metric its median and its interquartile range as a
share of the median, next to the metric's bound in BENCHMARK.json. A
spread above a third of the bound is flagged (setup_s excepted: its bound
limits drift between sets of runs, not spread).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: rc={proc.returncode} "
                      f"{[l for l in lines if l.startswith('# problem')]}")
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.3f}"
                  f"  bound {bound}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
