#!/usr/bin/env python3
"""Tests of the statistics behind compare.py.

    python3 perfbench/test_compare.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def pairs_of(parent, change):
    return list(zip(parent, change))


class Quartiles(unittest.TestCase):
    def test_matches_acceptance_rule(self):
        v = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(compare.quartiles(v), tuple(statistics.quantiles(v, n=4)))

    def test_spread_is_iqr_over_median(self):
        v = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(compare.spread(v), (q3 - q1) / q2)


class Tail(unittest.TestCase):
    def test_no_tail_from_ten_runs(self):
        self.assertEqual(compare.tail_percentiles([float(i) for i in range(10)]), {})

    def test_p90_needs_ten_beyond(self):
        self.assertEqual(list(compare.tail_percentiles([float(i) for i in range(99)])), [])
        self.assertEqual(list(compare.tail_percentiles([float(i) for i in range(100)])), [90])

    def test_p99_needs_a_thousand(self):
        self.assertEqual(
            sorted(compare.tail_percentiles([float(i) for i in range(1000)])), [90, 99])


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.5]

    def test_gain_when_nine_of_ten_win_and_gap_exceeds_iqr(self):
        change = [p - 5.0 for p in self.parent]
        change[3] = self.parent[3] + 1.0  # one lost pair
        self.assertEqual(compare.verdict(pairs_of(self.parent, change), "lower", 0.1), "gain")

    def test_no_gain_with_two_lost_pairs(self):
        change = [p - 5.0 for p in self.parent]
        change[3] = self.parent[3] + 1.0
        change[4] = self.parent[4] + 1.0
        self.assertEqual(
            compare.verdict(pairs_of(self.parent, change), "lower", 0.1), "within bound")

    def test_ties_count_for_neither(self):
        change = [p - 5.0 for p in self.parent]
        change[0] = self.parent[0]
        change[1] = self.parent[1]
        self.assertEqual(compare.pair_wins(pairs_of(self.parent, change), "lower"), 8)
        self.assertNotEqual(compare.verdict(pairs_of(self.parent, change), "lower", 0.1), "gain")

    def test_no_gain_when_gap_within_parent_iqr(self):
        change = [p - 0.1 for p in self.parent]
        self.assertEqual(compare.pair_wins(pairs_of(self.parent, change), "lower"), 10)
        self.assertEqual(
            compare.verdict(pairs_of(self.parent, change), "lower", 0.1), "within bound")

    def test_higher_is_better(self):
        change = [p + 5.0 for p in self.parent]
        self.assertEqual(compare.verdict(pairs_of(self.parent, change), "higher", 0.1), "gain")
        self.assertEqual(
            compare.verdict(pairs_of(change, self.parent), "higher", 0.1), "within bound")
        slower = [p * 0.8 for p in self.parent]
        self.assertEqual(compare.verdict(pairs_of(self.parent, slower), "higher", 0.1), "worse")

    def test_worse_beyond_bound(self):
        change = [p * 1.2 for p in self.parent]
        self.assertEqual(compare.verdict(pairs_of(self.parent, change), "lower", 0.1), "worse")
        self.assertEqual(
            compare.verdict(pairs_of(self.parent, change), "lower", 0.25), "within bound")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(pairs_of(self.parent, noisy), "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        # Parent IQR (~96) is wider than the gap between medians (~53),
        # so no gain; the spread exceeds the bound, but every change run
        # beats every parent run, so the change is not a regression.
        parent = [100.0, 101.0, 102.0, 103.0, 104.0, 196.0, 197.0, 198.0, 199.0, 200.0]
        change = [95.0, 95.5, 96.0, 96.5, 97.0, 97.5, 98.0, 98.5, 99.0, 99.5]
        pairs = pairs_of(parent, change)
        self.assertEqual(compare.verdict(pairs, "lower", 0.1), "within bound")
        change[9] = 100.5  # now one change run is slower than a parent run
        self.assertEqual(compare.verdict(pairs_of(parent, change), "lower", 0.1), "unresolved")


class Report(unittest.TestCase):
    spec = {"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.5]

    def records(self, change_failed=0, change_correct=True):
        recs = []
        for i, p in enumerate(self.parent):
            for side, v, failed, correct in (
                    ("parent", p, 0, True),
                    ("change", p - 5.0, change_failed, change_correct or i != 4)):
                recs.append({"workload": "paper", "pair": i, "side": side,
                             "result": {"correct": correct, "attempted": 100,
                                        "failed": failed,
                                        "metrics": {"latency_ms": {"value": v}}}})
        return recs

    def verdict_line(self, recs):
        return [l for l in compare.report(recs, self.spec).split("\n")
                if "latency_ms" in l][0]

    def test_clear_win_is_a_gain(self):
        self.assertTrue(self.verdict_line(self.records()).endswith("-> gain"))

    def test_a_wrong_run_makes_the_workload_invalid(self):
        line = self.verdict_line(self.records(change_correct=False))
        self.assertTrue(line.endswith("-> invalid"), line)

    def test_no_gain_when_the_change_fails_more(self):
        line = self.verdict_line(self.records(change_failed=1))
        self.assertTrue(line.endswith("-> within bound"), line)


if __name__ == "__main__":
    unittest.main()
