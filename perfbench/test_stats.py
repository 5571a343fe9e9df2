"""Unit tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def span(name, start, end, parent=-1, pass_id=1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "pass": pass_id}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(stats.percentile([0, 10], 0.75), 7.5)
        self.assertEqual(stats.percentile([5], 0.99), 5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 1.5)

    def test_samples_beyond_counts_strictly_greater_samples(self):
        for n in (1, 7, 39, 40, 41, 54, 100):
            values = list(range(n))
            for q in (0.5, 0.75, 0.9):
                p = stats.percentile(values, q)
                self.assertEqual(stats.samples_beyond(n, q),
                                 sum(v > p for v in values), (n, q))

    def test_p75_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.samples_beyond(37, 0.75), 9)
        self.assertFalse(stats.supports(37, 0.75))
        self.assertTrue(stats.supports(38, 0.75))
        self.assertEqual(stats.highest_supported(40), 0.75)
        self.assertEqual(stats.highest_supported(54), 0.75)

    def test_small_runs_support_no_tail(self):
        self.assertIsNone(stats.highest_supported(8))
        self.assertEqual(stats.highest_supported(21), 0.5)
        self.assertEqual(stats.highest_supported(100), 0.9)
        self.assertEqual(stats.highest_supported(1001), 0.99)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span("a", 1.0, 3.0)]), [2.0])

    def test_children_are_subtracted_once_even_when_overlapping(self):
        spans = [span("pass", 0.0, 10.0),
                 span("core.build", 2.0, 6.0, parent=0),
                 span("stage", 2.0, 4.0, parent=1),
                 span("stage", 3.0, 5.0, parent=1),
                 span("api.submit", 7.0, 8.0, parent=0)]
        self.assertEqual(stats.self_times(spans), [5.0, 1.0, 2.0, 2.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 0.0, 2.0), span("c", 1.0, 5.0, parent=0)]
        self.assertEqual(stats.self_times(spans)[0], 1.0)


class CoverageTest(unittest.TestCase):
    def spans(self):
        # Pass 1: 10 s wall, layers cover 9 s (build 4 s of which 3 s in
        # stages, submits 5 s). Pass 2: 4 s wall, fully covered.
        # Pass -1 is set-up and never counts.
        return [span("pass", 0.0, 10.0),
                span("api.submit", 0.0, 5.0, parent=0),
                span("core.build", 6.0, 10.0, parent=0),
                span("room.rooms", 6.0, 9.0, parent=2),
                span("pass", 20.0, 24.0, pass_id=2),
                span("cloud.drain", 20.0, 24.0, parent=4, pass_id=2),
                span("sim.render", 30.0, 40.0, pass_id=-1)]

    def test_layer_self_times_per_pass(self):
        layers = stats.layer_self_times(self.spans(), {1, 2})
        self.assertEqual(layers[1], {"api.submit": 5.0, "core.build": 1.0,
                                     "room.rooms": 3.0})
        self.assertEqual(layers[2], {"cloud.drain": 4.0})

    def test_coverage_is_layer_self_time_over_pass_wall(self):
        self.assertAlmostEqual(stats.coverage(self.spans(), {1}), 0.9)
        self.assertAlmostEqual(stats.coverage(self.spans(), {1, 2}), 13.0 / 14.0)
        self.assertEqual(stats.coverage(self.spans(), {3}), 0.0)

    def test_overhead_ratio_pairs_passes_by_permutation(self):
        passes = [{"order": 1, "traced": True, "wall_s": 1.1},
                  {"order": 1, "traced": False, "wall_s": 1.0},
                  {"order": 2, "traced": True, "wall_s": 2.4},
                  {"order": 2, "traced": False, "wall_s": 2.0},
                  {"order": 3, "traced": True, "wall_s": 9.9}]
        self.assertAlmostEqual(stats.overhead_ratio(passes), 1.15)


if __name__ == "__main__":
    unittest.main()
