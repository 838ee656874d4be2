#!/usr/bin/env python3
"""Steadiness record: repeat the benchmark and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload W ...] [--out FILE]

Makes SETS sets of RUNS untraced runs of perfbench/run.py per workload. Within
a set the workloads take turns, one run each, so host drift reaches all of
them alike. Every workload runs on fixed inputs (run.py ignores --seed), so
the sets are repeats of the same inputs; run i of every set passes --seed i.

Per set and workload the record holds the host.calib_s of every run (a fixed
single-thread loop timed before the run; it shows host speed drift and never
scales a result) and, per end-to-end metric, the values, their median and the
spread (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4). Across sets it holds each metric's shift:
the larger median over the smaller, minus one, so it counts a move in either
direction. A spread or shift above the metric's bound in BENCHMARK.json is
flagged. A spread beside a steady calib_s is the benchmark's own noise; a
shift in both is the host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    calib = next(float(line.split()[2]) for line in lines
                 if line.startswith("diag") and line.split()[1] ==
                 "host.calib_s")
    return result, calib


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def shift(a, b):
    lo, hi = sorted((a, b))
    return hi / lo - 1  # end-to-end metrics are never 0


def flag(value, bound):
    return "  > bound" if value > bound else ""


def run_set(workloads, runs, bounds):
    raw = {w: {"values": {}, "calib": [], "ok": True} for w in workloads}
    for i in range(1, runs + 1):
        for w in workloads:
            result, calib = run_once(w, i)
            r = raw[w]
            r["ok"] = r["ok"] and result["correct"] and result["failed"] == 0
            r["calib"].append(calib)
            for name, m in result["metrics"].items():
                r["values"].setdefault(name, []).append(m["value"])
    out = {}
    for w in workloads:
        r = raw[w]
        metrics = {}
        for name, vs in r["values"].items():
            s = spread(vs)
            metrics[name] = {"median": statistics.median(vs), "spread": s,
                             "bound": bounds[name], "values": vs}
            print(f"{w:15} {name:20} median {statistics.median(vs):12.6g} "
                  f"spread {s:.4f} bound {bounds[name]}"
                  f"{flag(s, bounds[name])}")
        print(f"{w:15} host.calib_s spread {spread(r['calib']):.4f} "
              f"all correct: {r['ok']}")
        out[w] = {"all_correct": r["ok"], "host.calib_s": r["calib"],
                  "metrics": metrics}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", help="write the JSON record here")
    args = p.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for k in range(args.sets):
        print(f"set {k + 1} of {args.sets}")
        sets.append(run_set(workloads, args.runs, bounds))
    shifts = {}
    for w in workloads:
        shifts[w] = {}
        for name, bound in bounds.items():
            medians = [s[w]["metrics"][name]["median"] for s in sets]
            worst = max(shift(a, b) for a in medians for b in medians)
            shifts[w][name] = worst
            if len(sets) > 1:
                print(f"{w:15} {name:20} medians "
                      f"{' '.join(f'{m:.6g}' for m in medians)} "
                      f"shift {worst:.4f} bound {bound}{flag(worst, bound)}")
    record = {"runs": args.runs, "run_seconds": spec["run_seconds"],
              "sets": sets, "shifts": shifts}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
