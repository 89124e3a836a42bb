#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each named workload
(untraced) and prints, per metric, the median over the runs and the spread:
the distance between the first and third quartile as a share of the median,
next to the metric's bound. The workloads take turns seed by seed, so a
drift of the host's speed shows in every workload at once rather than in
whichever workload happened to run during it.

    python3 perfbench/spread.py --runs 10 [--first-seed 100] [--save a.json] [workload ...]
    python3 perfbench/spread.py --load b.json --compare a.json

--save writes every value measured; --load reads them back instead of
running. --compare names an earlier saved set and prints, per metric, how
much worse the median got from that set to this one, as a share of the
earlier median, next to the bound.

Run it from the repository root. Exits non-zero if a run fails or reports
incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def measure(bench, workloads, runs, first_seed):
    """{workload: {metric: [value per run]}}, or None if a run failed."""
    values = {w: {} for w in workloads}
    for i in range(runs):
        seed = first_seed + i
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {run.returncode})")
                return None
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.6g}"
                             for k, v in values[workload].items()),
                  flush=True)
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--save")
    parser.add_argument("--load")
    parser.add_argument("--compare")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.load:
        with open(args.load) as f:
            values = json.load(f)
    else:
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        values = measure(bench, workloads, args.runs, args.first_seed)
        if values is None:
            return 1
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)

    worst = 0.0
    for workload, by_metric in values.items():
        for name, vals in by_metric.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = metrics[name]["bound"]
            worst = max(worst, spread / bound)
            print(f"  {workload:<15} {name:<13} median {med:<14.6g} "
                  f"spread {spread:7.2%}  bound {bound:.0%}")
    print(f"largest spread as a share of its bound: {worst:.2f}")

    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
        worst = 0.0
        for workload, by_metric in values.items():
            for name, vals in by_metric.items():
                before = statistics.median(earlier[workload][name])
                after = statistics.median(vals)
                change = (after - before) / before
                if metrics[name]["better"] == "higher":
                    change = -change
                bound = metrics[name]["bound"]
                worst = max(worst, change / bound)
                print(f"  {workload:<15} {name:<13} median {before:<12.6g} -> "
                      f"{after:<12.6g} worse by {change:7.2%}  bound {bound:.0%}")
        print(f"largest worsening as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
