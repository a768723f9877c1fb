#!/usr/bin/env python3
"""Unit tests of perfbench/run.py's pooling and determinism rules.

Run with `python3 perfbench/run.py --self-test` (or this file alone).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def doc(sub, p95, issued=300, met=290, failed=0, setup=1.0, wall=2.0,
        traced=False):
    return {
        "workload": "w", "sub": sub, "traced": traced, "correct": True,
        "host": {"setup_s": setup, "wall_s": wall, "peak_rss_mb": 10.0},
        "sim": {"sim_p50_ms": p95 / 2, "sim_p95_ms": p95},
        "pool": {"issued": issued, "met": met, "qps_queries": issued,
                 "qps_span_s": issued / 40.0, "attempted": issued,
                 "failed": failed},
        "count": {"common.events": 100, "trace.ids_drawn": 7},
        "check": {"queries_completed": issued - failed},
        "self_s": {"serve": wall},
    }


class Pooling(unittest.TestCase):
    def test_sim_metrics_pool_distinct_subruns_only(self):
        docs = [doc(0, 10.0), doc(1, 30.0), doc(2, 20.0),
                doc(0, 10.0, wall=4.0)]  # repeat of sub-run 0
        m, attempted, failed = run.end_to_end(docs)
        self.assertEqual(m["sim_p95_ms"], 20.0)  # median of 10, 30, 20
        self.assertEqual(attempted, 900)         # the repeat adds nothing
        self.assertAlmostEqual(m["sim_slo_attainment"], 870 / 900)
        self.assertAlmostEqual(m["sim_qps"], 40.0)
        # Host metrics take every iteration, repeats included.
        self.assertEqual(m["wall_s"], 2.0)

    def test_failures_lower_ok_frac(self):
        m, attempted, failed = run.end_to_end([doc(0, 1.0, failed=3),
                                               doc(1, 1.0)])
        self.assertEqual((attempted, failed), (600, 3))
        self.assertAlmostEqual(m["ok_frac"], 597 / 600)


class Determinism(unittest.TestCase):
    def test_repeats_must_match(self):
        self.assertTrue(run.check_determinism(
            [doc(0, 10.0), doc(1, 11.0), doc(0, 10.0, wall=9.0)]))
        self.assertFalse(run.check_determinism(
            [doc(0, 10.0), doc(0, 10.000001)]))

    def test_traced_replay_counts_are_exempt(self):
        traced = doc(0, 10.0, traced=True)
        traced["count"]["trace.ids_drawn"] = 123
        self.assertTrue(run.check_determinism([doc(0, 10.0), traced]))


class DriverExit(unittest.TestCase):
    def test_death_without_output_is_a_failed_check(self):
        # The library aborts on a lost query: SIGABRT, no stdout.
        self.assertIsNone(run.parse_driver(-6, ""))
        self.assertIsNone(run.parse_driver(1, ""))

    def test_nonzero_exit_marks_result_incorrect(self):
        d = run.parse_driver(1, 'x\n{"correct": true}\n')
        self.assertFalse(d["correct"])
        self.assertTrue(run.parse_driver(0, '{"correct": true}')["correct"])

    def test_usage_error_stops_with_exit_2(self):
        with self.assertRaises(SystemExit) as e:
            run.parse_driver(2, "")
        self.assertEqual(e.exception.code, 2)


class Plan(unittest.TestCase):
    def test_untraced_runs_every_subrun_then_repeats_zero(self):
        wl = {"subruns": 3}
        it = run.plan(wl, 0)
        first = [next(it) for _ in range(run.mandatory(wl, 0))]
        self.assertEqual(first, [(0, False), (1, False), (2, False),
                                 (0, False)])

    def test_traced_alternates_pairs(self):
        wl = {"subruns": 3}
        it = run.plan(wl, 1)
        self.assertEqual([next(it) for _ in range(4)],
                         [(0, False), (0, True), (1, False), (1, True)])


if __name__ == "__main__":
    unittest.main()
