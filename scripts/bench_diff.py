#!/usr/bin/env python3
"""Compare two BENCH_*.json records leaf by leaf.

    python3 scripts/bench_diff.py OLD.json NEW.json

Walks both JSON trees in parallel. A *wall* leaf is one whose key path
contains "wall", that sits inside an entry of "obs_histograms" (every
histogram there times the host clock), or whose key is one of the
host-clock measurements named in HOST_CLOCK_KEYS; wall leaves may differ
and are listed with their old and new values. Every other leaf — virtual
times, counts, outcome flags, configuration — must match exactly. Keys
present on only one side are reported as removed or added.

List elements are paired by position, except lists of objects that all
carry a "name" field (obs_counters, obs_gauges, obs_histograms), which are
paired by name.

Exit status: 0 when every non-wall leaf matches and both trees have the
same keys, 1 otherwise, 2 on a usage error.
"""

import json
import sys


# Host-clock measurements whose names do not say "wall": the disabled-path
# trace cost (bench_stage_scaling) and the chaos rows' reconnect recovery
# time (bench_serve_traffic --chaos).
HOST_CLOCK_KEYS = {"trace_disabled_ns_per_span", "recovery_s"}


def is_wall(path):
    if any("wall" in str(p) or p in HOST_CLOCK_KEYS for p in path):
        return True
    return len(path) >= 2 and path[0] == "obs_histograms"


def keyed(items):
    """Lists of named objects pair by name; other lists pair by position."""
    if items and all(isinstance(x, dict) and "name" in x for x in items):
        return {x["name"]: x for x in items}
    return {i: x for i, x in enumerate(items)}


def walk(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        pairs_old, pairs_new = old, new
    elif isinstance(old, list) and isinstance(new, list):
        pairs_old, pairs_new = keyed(old), keyed(new)
    else:
        kind = "wall" if is_wall(path) else "mismatch"
        if old != new or type(old) is not type(new):
            out[kind].append((path, old, new))
        return
    for k in pairs_old:
        if k not in pairs_new:
            out["removed"].append((path + [k], pairs_old[k], None))
    for k in pairs_new:
        if k not in pairs_old:
            out["added"].append((path + [k], None, pairs_new[k]))
    for k in pairs_old:
        if k in pairs_new:
            walk(pairs_old[k], pairs_new[k], path + [k], out)


def fmt(path):
    return "/".join(str(p) for p in path) or "<root>"


def short(v):
    s = json.dumps(v, sort_keys=True)
    return s if len(s) <= 60 else s[:57] + "..."


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        old = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    out = {"mismatch": [], "removed": [], "added": [], "wall": []}
    walk(old, new, [], out)
    for kind in ("mismatch", "removed", "added", "wall"):
        for path, a, b in out[kind]:
            if kind == "removed":
                print(f"removed   {fmt(path)} = {short(a)}")
            elif kind == "added":
                print(f"added     {fmt(path)} = {short(b)}")
            else:
                print(f"{kind:<9} {fmt(path)}: {short(a)} -> {short(b)}")
    bad = len(out["mismatch"]) + len(out["removed"]) + len(out["added"])
    print(f"bench_diff: {len(out['mismatch'])} non-wall mismatches, "
          f"{len(out['removed'])} removed, {len(out['added'])} added, "
          f"{len(out['wall'])} wall leaves differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
