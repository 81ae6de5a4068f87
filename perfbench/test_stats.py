"""Fixed-input tests of the benchmark's own statistics.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TestPercentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(stats.percentile(values, 50), 5.0)
        self.assertEqual(stats.percentile(values, 90), 9.0)
        self.assertEqual(stats.percentile(values, 100), 10.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        cases = {
            1000: 99.0, 999: 98.0, 544: 98.0, 200: 95.0, 199: 90.0,
            100: 90.0, 99: 80.0, 50: 80.0, 49: 75.0, 31: 67.0,
        }
        for n, expected in cases.items():
            with self.subTest(n=n):
                p = stats.tail_percentile(n)
                self.assertEqual(p, expected)
                self.assertGreaterEqual(stats.beyond(p, n), stats.MIN_BEYOND)
                higher = [q for q in stats.TAIL_LADDER if q > p]
                for q in higher:
                    self.assertLess(stats.beyond(q, n), stats.MIN_BEYOND)

    def test_ceiling_caps_the_tail_percentile(self):
        self.assertEqual(stats.tail_percentile(1000, ceiling=95.0), 95.0)
        self.assertEqual(stats.tail_percentile(100, ceiling=95.0), 90.0)
        values = [float(v) for v in range(1, 1001)]
        self.assertEqual(stats.tail(values, ceiling=95.0), (950.0, 95.0, 50))

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail_percentile(30))
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 30)

    def test_tail_reports_value_percentile_and_count(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.tail(values), (90.0, 90.0, 10))
        # exactly ten samples lie above the reported value
        value, _, beyond = stats.tail(values)
        self.assertEqual(sum(v > value for v in values), beyond)


class TestMedians(unittest.TestCase):
    def test_per_class_medians(self):
        samples = [
            (("fsync", 100.0), 3.0), (("fsync", 100.0), 1.0),
            (("fsync", 100.0), 2.0), (("adversarial", 1e3), 378.0),
            (("adversarial", 1e3), 380.0),
        ]
        self.assertEqual(
            stats.per_class_medians(samples),
            {("fsync", 100.0): 2.0, ("adversarial", 1e3): 379.0},
        )

    def test_column_minima_are_each_items_best_pass(self):
        rows = [[1.0, 30.0], [3.0, 10.0], [2.0, 99.0]]
        self.assertEqual(stats.column_minima(rows), [1.0, 10.0])

    def test_hot_best_uses_a_fixed_number_of_cycles(self):
        import served

        mix = served.Mix(client=None, traffic=None)
        rows = [[5.0, 4.0]] * (served.MIN_CYCLES * served.inputs.HOT_REPEATS)
        mix.hot_rows = [[3.0, 9.0]] + rows[1:] + [[1.0, 1.0]]
        # the row after the fixed count is left out
        self.assertEqual(mix.hot_best(), [3.0, 4.0])

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TestSpanSelfTimes(unittest.TestCase):
    def setUp(self):
        from repro.observability.tracing import Tracer

        tracer = Tracer()
        self.root = tracer.record_span("bench.pass", duration=10.0)
        child = tracer.record_span(
            "campaign.scenario", duration=4.0, parent_id=self.root
        )
        tracer.record_span("campaign.attempt", duration=1.0, parent_id=child)
        tracer.record_span(
            "campaign.scenario", duration=3.0, parent_id=self.root
        )
        self.other = tracer.record_span("service.request", duration=5.0)
        self.records = tracer.records()

    def test_subtree_selects_one_tree(self):
        names = sorted(
            r.name for r in stats.subtree(self.records, [self.root])
        )
        self.assertEqual(
            names,
            ["bench.pass", "campaign.attempt", "campaign.scenario",
             "campaign.scenario"],
        )

    def test_self_times_subtract_direct_children(self):
        tree = stats.subtree(self.records, [self.root])
        self.assertEqual(
            stats.self_times(tree),
            {
                "bench.pass": (1, 3.0),
                "campaign.scenario": (2, 6.0),
                "campaign.attempt": (1, 1.0),
            },
        )
        # the self times of a tree sum to its root's duration
        total = sum(s for _, s in stats.self_times(tree).values())
        self.assertEqual(total, 10.0)

    def test_covered_leaves_out_the_roots_own_time(self):
        # 10 s of pass, 7 s of it inside the program's spans
        self.assertEqual(stats.covered(self.records, "bench.pass"), (1, 7.0))

    def test_self_times_of_the_forest(self):
        forest = stats.self_times(self.records)
        self.assertEqual(forest["service.request"], (1, 5.0))


if __name__ == "__main__":
    unittest.main()
