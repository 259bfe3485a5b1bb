#!/usr/bin/env python3
"""Tests of the benchmark's own logic: python3 perfbench/test_benchlib.py"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def targets():
    with open(os.path.join(HERE, "attack_targets.json")) as f:
        return json.load(f)["targets"]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 201))  # 1..200, shuffled order irrelevant
        self.assertEqual(benchlib.percentile(samples[::-1], 50), 100)
        self.assertEqual(benchlib.percentile(samples, 95), 190)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile(list(range(199)), 95)  # 9 beyond p95
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile(list(range(19)), 50)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile([], 50)
        benchlib.percentile(list(range(20)), 50)  # exactly 10 beyond

    def test_min_samples_covers_the_tail(self):
        benchlib.percentile(list(range(benchlib.MIN_SAMPLES)),
                            benchlib.TAIL_PERCENTILE)


class TypicalPassTest(unittest.TestCase):
    def test_median_of_per_pass_percentiles(self):
        # Five passes of 1..50; two stalled passes read ten times slower.
        passes = [list(range(1, 51))] * 3 + [list(range(10, 501, 10))] * 2
        samples = [x for p in passes for x in p]
        ends = [50 * (i + 1) for i in range(5)]
        self.assertEqual(benchlib.typical_pass_percentile(samples, ends, 90),
                         45)
        self.assertEqual(benchlib.typical_pass_percentile(samples, ends, 50),
                         25)
        self.assertEqual(benchlib.percentile(samples, 90), 380)

    def test_only_exec_pools_its_samples(self):
        passes = [list(range(1, 51))] * 3 + [list(range(10, 501, 10))] * 2
        raw = {"samples_ms": [x for p in passes for x in p],
               "pass_ends": [50 * (i + 1) for i in range(5)],
               "setup_s": [1.0], "peak_rss_mb": 1.0, "rate": 1.0}
        for w in benchlib.WORKLOADS:
            self.assertEqual(benchlib.end_to_end(w, raw)["op_p90_ms"],
                             (380 if w == "exec_fig5" else 45, "ms"), w)

    def test_ends_must_cover_the_samples(self):
        samples = list(range(200))
        with self.assertRaises(ValueError):
            benchlib.typical_pass_percentile(samples, [100], 50)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.typical_pass_percentile(samples[:19], [19], 50)


class FailedShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(benchlib.failed_share(200, 0), 0.0)
        self.assertEqual(benchlib.failed_share(200, 5), 0.025)
        self.assertEqual(benchlib.failed_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchlib.failed_share(0, 0)
        with self.assertRaises(ValueError):
            benchlib.failed_share(10, 11)
        with self.assertRaises(ValueError):
            benchlib.failed_share(10, -1)


class PlanTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in benchlib.WORKLOADS:
            self.assertEqual(benchlib.plan_items(w, 7, targets()),
                             benchlib.plan_items(w, 7, targets()), w)

    def test_different_seed_different_inputs(self):
        for w in benchlib.WORKLOADS:
            self.assertNotEqual(benchlib.plan_items(w, 7, targets()),
                                benchlib.plan_items(w, 8, targets()), w)

    def test_attack_list_is_the_pinned_list(self):
        items = benchlib.plan_items("attack_dse", 3, targets())
        self.assertEqual(len(items), len(targets()))
        self.assertEqual(sorted(items),
                         sorted(benchlib.plan_items("attack_dse", 4,
                                                    targets())))

    def test_obfuscate_workloads_share_the_job_list(self):
        self.assertEqual(benchlib.plan_items("obfuscate_cold", 5),
                         benchlib.plan_items("obfuscate_restart", 5))
        self.assertEqual(len(benchlib.plan_items("obfuscate_cold", 5)),
                         benchlib.OBF_JOBS)

    def test_exec_covers_every_kernel_build(self):
        items = benchlib.plan_items("exec_fig5", 1)
        calls = [i for i in items if i.startswith("call ")]
        vm_kernels = sum(vm for _, _, vm in benchlib.KERNELS)
        self.assertEqual(len(set(calls)),
                         len(benchlib.KERNELS) * (benchlib.EXEC_BUILDS - 1) +
                         vm_kernels)


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        {"id": 0, "name": "bench.run", "start": 0.0, "end": 10.0,
         "parent": -1, "job": -1},
        {"id": 1, "name": "engine.obfuscate", "start": 1.0, "end": 4.0,
         "parent": 0, "job": -1},
        {"id": 2, "name": "minic.compile", "start": 1.5, "end": 2.0,
         "parent": 1, "job": -1},
        {"id": 3, "name": "minic.compile", "start": 5.0, "end": 6.0,
         "parent": 0, "job": 3},
    ]

    def test_self_time_subtracts_children(self):
        own, unaccounted, wall = benchlib.self_times(self.SPANS)
        self.assertAlmostEqual(own["engine.obfuscate"], 2.5)
        self.assertAlmostEqual(own["minic.compile"], 1.5)
        self.assertAlmostEqual(unaccounted, 6.0)
        self.assertAlmostEqual(sum(own.values()) + unaccounted, wall)

    def test_every_span_needs_a_metric(self):
        raw = {"counters": {}, "rate": 1.0, "untraced_rate": 1.0}
        with self.assertRaises(ValueError):
            benchlib.per_layer(raw, self.SPANS, {"minic.compile_s": "s"})
        names = {"minic.compile_s": "s", "engine.obfuscate_s": "s",
                 "unaccounted_s": "s", "store.hits": "count"}
        values = benchlib.per_layer(raw, self.SPANS, names)
        self.assertEqual(values["store.hits"], (0.0, "count"))
        self.assertAlmostEqual(values["unaccounted_s"][0], 6.0)


if __name__ == "__main__":
    unittest.main()
