"""Tests of the traced run's self-time aggregator on hand-built traces.

Run: python3 perfbench/test_selftime.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import selftime  # noqa: E402


def x(name, tid, ts_us, dur_us):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid,
            "ts": ts_us, "dur": dur_us}


def trace():
    """Main track 0 runs bench.run with nested solver/stage spans; track 1
    is a tail drainer whose spans overlap the main track in time."""
    return [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0},
        x("service.prime", 0, 0, 50),
        x("bench.run", 0, 100, 1000),
        x("LSP", 0, 110, 600),
        x("Fu1D", 0, 120, 300),
        x("stage.bypass_compute", 0, 130, 250),
        x("F*u2D", 0, 430, 200),
        x("stage.encode_probe", 0, 440, 100),
        x("RSP", 0, 720, 80),
        x("stage.tail_drain", 1, 150, 400),
        x("net.get_batch", 1, 200, 100),
        # Async pairs, instants and counters carry no self time.
        {"name": "net.get_batch", "ph": "b", "pid": 1, "tid": 0,
         "ts": 105, "id": 7},
        {"name": "net.get_batch", "ph": "e", "pid": 1, "tid": 1,
         "ts": 900, "id": 7},
        {"name": "job.rejected", "ph": "i", "pid": 1, "tid": 0, "ts": 300},
        {"name": "vclock.session", "ph": "C", "pid": 1, "tid": 0,
         "ts": 310, "args": {"v": 4.0}},
    ]


class SelfTimeTest(unittest.TestCase):
    def test_nested_self_times_per_track(self):
        by_name = {s.name: s.self_ns for s in selftime.spans(trace())}
        self.assertEqual(by_name["bench.run"], (1000 - 600 - 80) * 1000)
        self.assertEqual(by_name["LSP"], (600 - 300 - 200) * 1000)
        self.assertEqual(by_name["Fu1D"], 50 * 1000)
        self.assertEqual(by_name["F*u2D"], 100 * 1000)
        # Track 1's spans never count as children of track 0's.
        self.assertEqual(by_name["stage.tail_drain"], 300 * 1000)
        self.assertEqual(by_name["net.get_batch"], 100 * 1000)

    def test_partition_adds_up_to_root(self):
        m = selftime.aggregate(trace())
        parts = m["core.run_unattributed_s"] + sum(
            m[f"self.{layer}_s"] for layer in selftime.LAYERS)
        self.assertAlmostEqual(parts, m["selftime.root_s"], places=12)
        self.assertAlmostEqual(m["selftime.root_s"], 1000e-6)
        self.assertAlmostEqual(m["core.run_unattributed_s"], 320e-6)
        self.assertAlmostEqual(m["self.admm_s"], (100 + 80) * 1e-6)
        self.assertAlmostEqual(m["self.lamino_s"], (50 + 100) * 1e-6)
        self.assertAlmostEqual(m["self.fft_s"], 250e-6)
        self.assertAlmostEqual(m["self.memo_s"], 100e-6)
        # The drainer track is outside the partition.
        self.assertEqual(m["self.net_s"], 0)

    def test_inclusive_stage_and_phase_totals(self):
        m = selftime.aggregate(trace())
        self.assertAlmostEqual(m["lamino.fu1d_s"], 300e-6)
        self.assertAlmostEqual(m["lamino.fu2d_s"], 200e-6)
        self.assertAlmostEqual(m["admm.lsp_wall_s"], 600e-6)
        self.assertAlmostEqual(m["admm.rsp_wall_s"], 80e-6)
        self.assertEqual(m["admm.init_wall_s"], 0)

    def test_skewed_parent_start(self):
        # The phase span's derived start reads 0.2 us after its first
        # child's; it still becomes the child's parent.
        events = [x("bench.run", 0, 0, 100), x("Fu1D", 0, 10.0, 20),
                  x("LSP", 0, 10.2, 50)]
        by_name = {s.name: s.self_ns for s in selftime.spans(events)}
        self.assertEqual(by_name["LSP"], 30 * 1000)
        self.assertEqual(by_name["bench.run"], 50 * 1000)

    def test_job_overhead_is_self_time_of_job_spans(self):
        # Jobs of the set-up phase (serve's prime) lie outside the root.
        events = [x("service.prime", 0, -50, 40), x("job", 0, -45, 30),
                  x("bench.run", 0, 0, 100), x("job", 0, 10, 80),
                  x("job.solve", 0, 15, 60), x("LSP", 0, 20, 40)]
        m = selftime.aggregate(events)
        self.assertAlmostEqual(m["serve.job_overhead_s"], (20 + 20) * 1e-6)
        self.assertAlmostEqual(m["self.serve_s"], 40e-6)

    def test_counts_spans_straddling_the_root(self):
        self.assertEqual(selftime.aggregate(trace())["selftime.straddling"], 0)
        # Same track, crossing the root's end: counted, because it breaks
        # the partition (taken as the root's child, it is left out of the
        # parts). The drainer track's crossing span is not the root's.
        events = [x("bench.run", 0, 0, 100), x("LSP", 0, 10, 50),
                  x("RSP", 0, 90, 20), x("stage.tail_drain", 1, 90, 20)]
        m = selftime.aggregate(events)
        self.assertEqual(m["selftime.straddling"], 1)
        parts = m["core.run_unattributed_s"] + sum(
            m[f"self.{layer}_s"] for layer in selftime.LAYERS)
        self.assertAlmostEqual(parts, 80e-6)
        self.assertAlmostEqual(m["selftime.root_s"], 100e-6)

    def test_requires_one_root(self):
        with self.assertRaises(ValueError):
            selftime.aggregate([x("LSP", 0, 0, 10)])


if __name__ == "__main__":
    unittest.main()
