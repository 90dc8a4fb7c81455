#!/usr/bin/env python3
"""The perf gate's comparison rule (scripts/perf_gate.py compare()), against
the end-to-end metrics and bounds BENCHMARK.json declares. Builds and runs no
benchmark."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))
import perf_gate  # noqa: E402

END_TO_END = perf_gate.load_json(perf_gate.BENCHMARK)["end_to_end"]


def quartiles(median, iqr):
    return {"q1": median - iqr / 2, "median": median, "q3": median + iqr / 2}


def baseline(iqr_share=0.02):
    """One workload whose every metric has median 100 and the given IQR."""
    return {"w": {m["name"]: quartiles(100.0, 100.0 * iqr_share) for m in END_TO_END}}


def result(correct=True, failed=0, **values):
    metrics = {m["name"]: {"value": 100.0} for m in END_TO_END}
    for name, value in values.items():
        metrics[name] = {"value": value}
    return {"correct": correct, "attempted": 5, "failed": failed, "metrics": metrics}


class CompareTest(unittest.TestCase):
    def compare(self, base, res):
        return perf_gate.compare(END_TO_END, base, {"w": res})

    def test_unchanged_run_passes(self):
        self.assertEqual(self.compare(baseline(), result()), [])

    def test_worse_than_bound_and_iqr_fails_naming_workload_and_metric(self):
        failures = self.compare(baseline(), result(e2e_s=140.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("w e2e_s", failures[0])

    def test_worse_than_bound_inside_iqr_passes(self):
        self.assertEqual(self.compare(baseline(iqr_share=0.5), result(e2e_s=140.0)), [])

    def test_inside_bound_passes(self):
        self.assertEqual(self.compare(baseline(), result(e2e_s=120.0)), [])

    def test_higher_is_better_drop_fails(self):
        failures = self.compare(baseline(), result(records_per_s=60.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("records_per_s", failures[0])

    def test_higher_is_better_rise_passes(self):
        self.assertEqual(self.compare(baseline(), result(records_per_s=200.0)), [])

    def test_lower_is_better_drop_passes(self):
        self.assertEqual(self.compare(baseline(), result(e2e_s=50.0, cpu_s=50.0)), [])

    def test_peak_rss_uses_its_own_bound(self):
        bound = {m["name"]: m["bound"] for m in END_TO_END}["peak_rss_mb"]
        self.assertEqual(bound, 0.1)
        failures = self.compare(baseline(), result(peak_rss_mb=115.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("peak_rss_mb", failures[0])
        self.assertEqual(self.compare(baseline(), result(peak_rss_mb=109.0)), [])

    def test_incorrect_run_fails(self):
        self.assertNotEqual(self.compare(baseline(), result(correct=False)), [])

    def test_failed_iterations_fail(self):
        self.assertNotEqual(self.compare(baseline(), result(failed=1)), [])

    def test_missing_result_fails(self):
        self.assertNotEqual(self.compare(baseline(), None), [])

    def test_workload_missing_from_baseline_fails(self):
        failures = perf_gate.compare(END_TO_END, baseline(), {"w": result(),
                                                              "other": result()})
        self.assertEqual(len(failures), 1)
        self.assertIn("other", failures[0])

    def test_metric_missing_from_baseline_fails(self):
        base = baseline()
        del base["w"]["cpu_s"]
        self.assertNotEqual(self.compare(base, result()), [])


if __name__ == "__main__":
    unittest.main()
