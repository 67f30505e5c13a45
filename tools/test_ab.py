#!/usr/bin/env python3
"""Self-test for the summary arithmetic of tools/ab.py.

ab.py's verdicts (who won a pair, whether the median moved by more than
the base's interquartile range, whether the trajectory moved) decide
whether a claimed gain stands, so they are pinned here on fixture runs.
Stdlib-only, needs no build or git, and registered with CTest as
`ab_selftest`.

Run directly:  python3 tools/test_ab.py
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

METRICS = [
    {"name": "round_ms_p50", "better": "lower"},
    {"name": "cycles_per_s", "better": "higher"},
    {"name": "absent", "better": "lower"},
]


def run(**values):
    """One perfbench result carrying the given metric values."""
    return {"metrics": {k: {"value": v} for k, v in values.items()}}


class QuartilesTest(unittest.TestCase):
    def test_single_value_is_all_three(self):
        self.assertEqual(ab.quartiles([3.5]), (3.5, 3.5, 3.5))

    def test_inclusive_method(self):
        # Inclusive quartiles of 1..5 are the 2nd, 3rd and 4th values.
        self.assertEqual(ab.quartiles([5, 1, 4, 2, 3]), (2.0, 3.0, 4.0))
        q1, med, q3 = ab.quartiles([1, 2, 3, 4])
        self.assertAlmostEqual(q1, 1.75)
        self.assertAlmostEqual(med, 2.5)
        self.assertAlmostEqual(q3, 3.25)


class SummariseTest(unittest.TestCase):
    def rows(self, runs):
        return {r["metric"]: r for r in ab.summarise(METRICS, runs)}

    def test_win_direction_follows_better(self):
        runs = [
            (run(round_ms_p50=1.0, cycles_per_s=10),
             run(round_ms_p50=0.6, cycles_per_s=15)),
            (run(round_ms_p50=1.1, cycles_per_s=11),
             run(round_ms_p50=1.2, cycles_per_s=9)),
            (run(round_ms_p50=0.9, cycles_per_s=10),
             run(round_ms_p50=0.5, cycles_per_s=14)),
        ]
        rows = self.rows(runs)
        # Lower is better: pairs 0 and 2 win. Higher is better: the same.
        self.assertEqual(rows["round_ms_p50"]["wins"], 2)
        self.assertEqual(rows["cycles_per_s"]["wins"], 2)
        self.assertEqual(rows["round_ms_p50"]["pairs"], 3)

    def test_ties_are_not_wins(self):
        runs = [(run(round_ms_p50=1.0), run(round_ms_p50=1.0))] * 3
        row = self.rows(runs)["round_ms_p50"]
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["rel_change"], 0.0)
        self.assertFalse(row["beyond_base_iqr"])

    def test_beyond_base_iqr(self):
        base = [1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.2, IQR 0.2
        moved = [(run(round_ms_p50=b), run(round_ms_p50=b - 0.5))
                 for b in base]
        row = self.rows(moved)["round_ms_p50"]
        self.assertTrue(row["beyond_base_iqr"])
        self.assertAlmostEqual(row["rel_change"], -0.5 / 1.2)
        within = [(run(round_ms_p50=b), run(round_ms_p50=b - 0.1))
                  for b in base]
        self.assertFalse(self.rows(within)["round_ms_p50"]["beyond_base_iqr"])

    def test_metric_missing_on_either_side_is_skipped(self):
        runs = [(run(round_ms_p50=1.0, absent=2.0), run(round_ms_p50=0.9))]
        rows = self.rows(runs)
        self.assertNotIn("absent", rows)
        self.assertNotIn("cycles_per_s", rows)
        self.assertIn("round_ms_p50", rows)

    def test_zero_base_median_has_no_relative_change(self):
        runs = [(run(round_ms_p50=0.0), run(round_ms_p50=1.0))]
        self.assertIsNone(self.rows(runs)["round_ms_p50"]["rel_change"])


class FingerprintTest(unittest.TestCase):
    def printed(self, prints):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ab.print_rows("serve_city", [], prints)
        return out.getvalue()

    def test_same_sets_match(self):
        prints = {"base": {"2f996862"}, "change": {"2f996862"}}
        self.assertTrue(ab.fingerprints_match(prints))
        self.assertNotIn("FINGERPRINT MOVED", self.printed(prints))

    def test_moved_trajectory_is_reported(self):
        prints = {"base": {"2f996862"}, "change": {"deadbeef"}}
        self.assertFalse(ab.fingerprints_match(prints))
        self.assertIn("FINGERPRINT MOVED", self.printed(prints))

    def test_extra_fingerprint_on_one_side_is_a_move(self):
        # A run-to-run nondeterministic change shows two fingerprints.
        prints = {"base": {"2f996862"}, "change": {"2f996862", "deadbeef"}}
        self.assertFalse(ab.fingerprints_match(prints))
        self.assertIn("FINGERPRINT MOVED", self.printed(prints))


if __name__ == "__main__":
    unittest.main()
