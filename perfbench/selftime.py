"""Self-time aggregation over a Chrome trace written by obs::TraceRecorder.

A span's self time is its duration minus the durations of its direct
children on the same thread track. Only complete events ('X') take part;
async pairs ('b'/'e'), instants and counters are ignored. On the track of
the benchmark's root span (``bench.run``) the self times of the root and of
every span under it partition the root's duration exactly, which is what
lets the traced run split ``recon_wall_s`` into layers.
"""

import json
from collections import defaultdict

ROOT = "bench.run"

# Solver phase spans (admm::phase_name) and operator stage spans
# (memo::op_kind_name).
ADMM_PHASES = {"init": "init", "LSP": "lsp", "RSP": "rsp",
               "lambda": "lambda", "penalty": "penalty"}
FU1D = {"Fu1D", "F*u1D"}
FU2D = {"Fu2D", "F*u2D"}

# Layers of the self-time partition; the root's own self time is reported
# as core.run_unattributed_s instead.
LAYERS = ("admm", "lamino", "fft", "memo", "serve", "net", "other")

# A phase span's start is derived from its measured duration, so it can
# read a few ns later than that of its first child; within this tolerance
# the longer span is taken as the parent.
SKEW_NS = 1000


def layer_of(name):
    if name in ADMM_PHASES:
        return "admm"
    if name in FU1D or name in FU2D:
        return "lamino"
    if name in ("stage.bypass_compute", "stage.miss_fft"):
        return "fft"
    if name.startswith("stage."):
        return "memo"
    if name == "job" or name.startswith(("job.", "service.")):
        return "serve"
    if name.startswith("net."):
        return "net"
    return "other"


class Span:
    __slots__ = ("name", "tid", "start", "dur", "child_ns")

    def __init__(self, name, tid, start, dur):
        self.name, self.tid, self.start, self.dur = name, tid, start, dur
        self.child_ns = 0

    @property
    def end(self):
        return self.start + self.dur

    @property
    def self_ns(self):
        return self.dur - self.child_ns


def spans(events):
    """Complete events as Spans (integer ns) with child time attributed."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") != "X":
            continue
        by_tid[e["tid"]].append(Span(e["name"], e["tid"],
                                     round(float(e["ts"]) * 1000),
                                     round(float(e["dur"]) * 1000)))
    out = []
    for track in by_tid.values():
        track.sort(key=lambda s: (s.start, -s.dur))
        parent = {}
        stack = []
        for s in track:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            # Skewed start: s begins just after open spans but outlasts
            # them, so s is really the parent of the outermost of them.
            outer = None
            while (stack and s.end > stack[-1].end
                   and s.start - stack[-1].start <= SKEW_NS):
                outer = stack.pop()
            if outer is not None:
                parent[id(s)] = parent.get(id(outer))
                parent[id(outer)] = s
            elif stack:
                parent[id(s)] = stack[-1]
            stack.append(s)
        for s in track:
            p = parent.get(id(s))
            if p is not None:
                p.child_ns += s.dur
        out.extend(track)
    return out


def aggregate(events):
    """Per-layer metrics, in seconds, of the span tree under the root."""
    all_spans = spans(events)
    roots = [s for s in all_spans if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    root = roots[0]
    # Spans outside the timed operation (serve's prime) do not count.
    timed = [s for s in all_spans
             if s.start >= root.start and s.end <= root.end]
    # A span on the root's track that crosses one of its edges would fall
    # out of the partition unseen; the caller checks that there are none.
    straddling = sum(1 for s in all_spans
                     if s.tid == root.tid and s.start < root.end
                     and s.end > root.start and s not in timed)
    partition = dict.fromkeys(LAYERS, 0)
    for s in timed:
        if s.tid == root.tid and s is not root:
            partition[layer_of(s.name)] += s.self_ns

    m = {"core.run_unattributed_s": root.self_ns / 1e9,
         "selftime.root_s": root.dur / 1e9,
         "selftime.straddling": straddling}
    for layer in LAYERS:
        m[f"self.{layer}_s"] = partition[layer] / 1e9
    inclusive = defaultdict(int)
    job_self = 0
    for s in timed:
        inclusive[s.name] += s.dur
        if s.name == "job" or s.name.startswith("job."):
            job_self += s.self_ns
    m["lamino.fu1d_s"] = sum(inclusive[n] for n in FU1D) / 1e9
    m["lamino.fu2d_s"] = sum(inclusive[n] for n in FU2D) / 1e9
    for name, key in ADMM_PHASES.items():
        m[f"admm.{key}_wall_s"] = inclusive[name] / 1e9
    m["serve.job_overhead_s"] = job_self / 1e9
    return m


def aggregate_file(path):
    with open(path) as f:
        return aggregate(json.load(f)["traceEvents"])
