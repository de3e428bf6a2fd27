#!/usr/bin/env python3
"""Steadiness check for the DeskPar benchmark.

    python3 deskbench/steady.py [--seeds 42] [--check-seed 7]

Runs every workload in BENCHMARK.json ten times (untraced, at its
run_seconds), cycling through --seeds, and prints the median, first and
third quartile of every end-to-end metric, with the spread
(q3 - q1) / median next to the metric's bound. A spread above a third
of the bound is flagged. Unless --check-seed is none, it then runs each
workload once more on that seed and shows where each metric falls
against the median, to show the figures hold off the default seed.
Pass --seeds 1,2,...,10 for one distinct seed per run. The last line
names the largest spread as a share of its bound, over every metric,
setup_s included. Run from the repository root; raw results are kept
in .bench_work/steady-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %s failed (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %s: output check failed"
                         % (workload, seed))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="42")
    parser.add_argument("--check-seed", default="7")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    worst = (0.0, "")
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for i in range(RUNS):
            seed = seeds[i % len(seeds)]
            runs.append(run_once(workload, seed, seconds))
            print("%s run %d seed %d: %s" % (
                workload, i + 1, seed,
                " ".join("%s=%.6g" % (m["name"],
                                      runs[-1]["metrics"][m["name"]]
                                      ["value"])
                         for m in metrics)), flush=True)
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_work",
                               "steady-%s.json" % workload), "w") as f:
            json.dump(runs, f, indent=1)
        print("%s: %d runs, seeds %s" % (workload, len(runs), args.seeds))
        print("  %-12s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        bands = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bands[m["name"]] = (q1, med, q3)
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  > bound/3"
            worst = max(worst, (spread / m["bound"],
                                "%s %s" % (workload, m["name"])))
            print("  %-12s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                m["name"], q1, med, q3, spread, m["bound"], flag))
        if args.check_seed != "none":
            seed = int(args.check_seed)
            r = run_once(workload, seed, seconds)
            print("  seed %d:" % seed)
            for m in metrics:
                v = r["metrics"][m["name"]]["value"]
                q1, med, q3 = bands[m["name"]]
                print("  %-12s %12.6g  (%+.2f%% from the median)" % (
                    m["name"], v, 100.0 * (v / med - 1.0) if med else 0))
        sys.stdout.flush()
    print("largest spread / bound: %.3f (%s)" % worst)


if __name__ == "__main__":
    main()
