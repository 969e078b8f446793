#!/usr/bin/env python3
"""Self-test of scripts/suite_ab.py's statistics on fixed inputs.

    python3 scripts/test_suite_ab.py

Runs no benchmark. Standard library only.
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import suite_ab  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(suite_ab.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))

    def test_even_count(self):
        q1, med, q3 = suite_ab.quartiles([10, 20, 30, 40])
        self.assertEqual(med, 25)
        self.assertEqual((q1, q3), (12.5, 37.5))

    def test_single_value(self):
        self.assertEqual(suite_ab.quartiles([7.0]), (7.0, 7.0, 7.0))


class Schedule(unittest.TestCase):
    def test_distinct_seeds_and_alternating_order(self):
        plan = suite_ab.schedule(4, first_seed=11)
        self.assertEqual([seed for seed, _ in plan], [11, 12, 13, 14])
        self.assertEqual([order[0] for _, order in plan],
                         ["base", "change", "base", "change"])
        for _, order in plan:
            self.assertEqual(sorted(order), ["base", "change"])


class Compare(unittest.TestCase):
    BASE = [40.5, 41.0, 41.6, 42.0, 42.6]

    def test_lower_is_better_clear_gain(self):
        change = [25.8, 27.0, 27.5, 28.0, 28.3]
        r = suite_ab.compare(self.BASE, change, "lower")
        self.assertEqual(r["wins"], 5)
        self.assertEqual(r["pairs"], 5)
        self.assertAlmostEqual(r["ratio"], 27.5 / 41.6)
        self.assertTrue(r["separated"])

    def test_wins_are_counted_per_pair_not_by_rank(self):
        # Pair 0 loses although its change value is below the base median.
        change = [41.0, 40.0, 41.0, 41.0, 42.0]
        r = suite_ab.compare(self.BASE, change, "lower")
        self.assertEqual(r["wins"], 4)

    def test_ties_are_not_wins(self):
        r = suite_ab.compare([1.0, 2.0], [1.0, 2.0], "lower")
        self.assertEqual(r["wins"], 0)
        self.assertEqual(r["ratio"], 1.0)
        self.assertFalse(r["separated"])

    def test_higher_is_better(self):
        r = suite_ab.compare([100, 110, 120], [130, 100, 140], "higher")
        self.assertEqual(r["wins"], 2)
        self.assertAlmostEqual(r["ratio"], 130 / 110)

    def test_shift_inside_base_iqr_is_not_separated(self):
        base = [10.0, 12.0, 14.0, 16.0, 18.0]  # q1 11, q3 17: IQR 6
        change = [9.0, 11.0, 13.0, 15.0, 17.0]  # median 13: 1 below
        r = suite_ab.compare(base, change, "lower")
        self.assertEqual(r["wins"], 5)
        self.assertFalse(r["separated"])

    def test_zero_base_median(self):
        self.assertEqual(suite_ab.compare([0, 0], [0, 0], "lower")["ratio"],
                         1.0)
        self.assertEqual(suite_ab.compare([0, 0], [1, 1], "lower")["ratio"],
                         float("inf"))

    def test_rejects_unpaired_or_unknown_direction(self):
        with self.assertRaises(ValueError):
            suite_ab.compare([1.0, 2.0], [1.0], "lower")
        with self.assertRaises(ValueError):
            suite_ab.compare([1.0], [1.0], "sideways")


class ParseRun(unittest.TestCase):
    @staticmethod
    def out(correct=True, failed=0, value=2.5):
        summary = {"correct": correct, "attempted": 10, "failed": failed,
                   "metrics": {"lat_p50_us": {"value": value, "unit": "us"}}}
        return '{"metric": "echoed record"}\n' + json.dumps(summary) + "\n"

    def test_correct_run(self):
        self.assertEqual(suite_ab.parse_run(self.out(), 0),
                         (True, {"lat_p50_us": 2.5}))

    def test_incorrect_payload(self):
        self.assertFalse(suite_ab.parse_run(self.out(correct=False), 1)[0])

    def test_failed_ops_or_nonzero_exit(self):
        self.assertFalse(suite_ab.parse_run(self.out(failed=3), 0)[0])
        self.assertFalse(suite_ab.parse_run(self.out(), 1)[0])

    def test_no_summary(self):
        self.assertEqual(suite_ab.parse_run("", 1), (False, {}))
        self.assertEqual(suite_ab.parse_run("build failed\n", 1), (False, {}))


if __name__ == "__main__":
    unittest.main()
