#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

    python3 perfbench/run.py --workload recon-mlr --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script builds perfbench/ (a CMake
package of its own over the library sources in src/) into .bench_build/,
runs the harness, checks its outputs, prints every metric by name with its
unit and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant and reports its per-layer metrics, including the
self-time partition of the traced run (perfbench/selftime.py).

Every workload runs on the library's canonical inputs, so --seed is accepted
and echoed but does not change them; perfbench/README.md gives the reason.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
RUN_BUDGET_S = 170  # the whole run, build excluded, ends within this
SELFTIME_TOL_S = 1e-3  # traced root span vs the harness timer around it

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, HERE)
import selftime  # noqa: E402


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_harness(args, trace_file):
    cmd = [HARNESS, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_BUDGET_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"harness exited with {proc.returncode}")
    metrics, units, checks, ops = {}, {}, [], None
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 3)
        if parts[0] == "M":
            metrics[parts[1]] = float(parts[2])
            units[parts[1]] = parts[3]
        elif parts[0] == "C":
            checks.append((parts[1], parts[2] == "1", parts[3]))
        elif parts[0] == "O":
            ops = (int(parts[1]), int(parts[2]))
    if ops is None:
        fail("harness printed no operation counts")
    return metrics, units, checks, ops


def selftime_checks(metrics):
    """The traced root span must cover what the harness timed around it,
    nothing on its track may cross its edges, and the self times under it
    must add up to the traced wall time."""
    wall = metrics["traced.recon_wall_s"]
    root = metrics["selftime.root_s"]
    parts = metrics["core.run_unattributed_s"] + sum(
        metrics[f"self.{layer}_s"] for layer in selftime.LAYERS)
    straddling = metrics["selftime.straddling"]
    return [
        ("selftime_root_is_timed_run", abs(root - wall) <= SELFTIME_TOL_S,
         f"root={root:.6f}s wall={wall:.6f}s"),
        ("selftime_root_track_nested", straddling == 0,
         f"straddling={straddling:g}"),
        ("selftime_adds_up", abs(parts - wall) <= SELFTIME_TOL_S,
         f"parts={parts:.6f}s wall={wall:.6f}s"),
    ]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    t0 = time.monotonic()
    build()
    build_s = time.monotonic() - t0
    trace_file = os.path.join(
        BUILD, f"trace-{args.workload}-{args.seed}.json")
    if os.path.exists(trace_file):
        os.remove(trace_file)
    metrics, units, checks, (attempted, failed) = run_harness(args, trace_file)
    if args.trace:
        traced = selftime.aggregate_file(trace_file)
        metrics.update(traced)
        units.update(dict.fromkeys(traced, "s"))
        units["selftime.straddling"] = "count"
        checks += selftime_checks(metrics)
        os.remove(trace_file)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics missing from the harness: " + ", ".join(missing))
    for m in wanted:
        if m["name"] in units and units[m["name"]] != m["unit"]:
            fail(f"{m['name']}: harness unit {units[m['name']]}, "
                 f"BENCHMARK.json unit {m['unit']}")
    checks.append(("metrics_finite",
                   all(math.isfinite(v) for v in metrics.values()), "-"))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"(build {build_s:.1f} s)")
    for name, ok, detail in checks:
        print(f"check  {name:<28} {'ok' if ok else 'FAILED'}  {detail}")
    listed = {m["name"] for m in wanted}
    for m in wanted:
        print(f"metric {m['name']:<28} {metrics[m['name']]:>16.6g} "
              f"{m['unit']}")
    for name in sorted(set(metrics) - listed):
        print(f"diag   {name:<28} {metrics[name]:>16.6g} {units[name]}")

    correct = all(ok for _, ok, _ in checks)
    if not correct and failed == 0:
        failed = attempted  # a failed check outside any single operation
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
