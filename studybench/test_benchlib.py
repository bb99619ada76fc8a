#!/usr/bin/env python3
"""Tests of the study benchmark's own arithmetic.

  python3 -m unittest discover -s studybench -p 'test_*.py'
"""

import json
import os
import unittest

import benchlib


def harness_record(study_s, **overrides):
    """A harness JSON object as study_bench --mode traced prints it."""
    layers = {
        "phase.scan_s": 8.0, "phase.datasets_s": 0.5,
        "phase.attack_month_s": 1.0, "phase.correlate_s": 0.5,
        "mem.hwm_after_scan_mb": 300.0, "mem.hwm_after_attack_month_mb": 320.0,
        "fabric.packets_faulted": 50, "tcp.connect_timeouts": 7,
        "scanner.retries": 200, "scanner.responsive": 10,
        "scanner.unresolved": 80, "devices.hosts": 1000,
        "devices.materialized": 12, "telescope.flowtuples": 30,
        "trace.recorded": 400, "trace.dropped": 100,
        "classify.s": 0.25, "classify.findings": 9,
    }
    for i, protocol in enumerate(benchlib.SHARD_PROTOCOLS):
        layers[f"shard.{protocol}_s"] = float(i + 1)
        layers[f"shard.{protocol}_cpu_s"] = 0.5
    layers.update(overrides)
    counts = {
        "sim.scan_events": 300, "sim.main_events": 40,
        "fabric.packets_sent": 1000, "tcp.connects": 150,
        "scanner.probes": 100, "honeynet.events": 20,
        "telescope.packets": 60,
    }
    return {"study_s": study_s, "layers": layers, "counts": counts}


class StatisticsTest(unittest.TestCase):
    def test_quartiles_of_known_series(self):
        # Exclusive method: positions (n + 1) / 4 and 3 (n + 1) / 4.
        self.assertEqual(benchlib.quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 6))
        self.assertEqual(benchlib.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5, 6, 7]), 1.0)
        self.assertEqual(benchlib.spread([2.0, 2.0, 2.0]), 0.0)
        # Even count: the median is the mean of the middle pair.
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5, 6, 7, 8]),
                               4.5 / 4.5)

    def test_ratio_guards_zero_denominator(self):
        self.assertEqual(benchlib.ratio(3, 4), 0.75)
        self.assertEqual(benchlib.ratio(3, 0), 0.0)


def study_record(**overrides):
    """A harness JSON object as study_bench --mode study prints it."""
    record = harness_record(10.0)
    record.update(packets_conserved=True, probes_conserved=True)
    record.update(overrides)
    return record


REPORTS = b"== table4\nTelnet 1\n"
REPORTS_DIGEST = (
    "6f7be1db8e4c1133e13af4bf9c6a9a14bbee366fb2240455be5832a84be13dac")


class CheckerTest(unittest.TestCase):
    def test_matching_studies_pass(self):
        checker = benchlib.Checker(None)
        checker.check("a", study_record(), REPORTS, None)
        checker.check("b", study_record(), REPORTS, None)
        self.assertEqual((checker.attempted, checker.failed), (2, 0))

    def test_digest_is_the_sha256_of_the_report_bytes(self):
        checker = benchlib.Checker(None)
        checker.check("a", study_record(), REPORTS, None)
        self.assertEqual(checker.digest, REPORTS_DIGEST)

    def test_pinned_digest_catches_a_single_changed_byte(self):
        checker = benchlib.Checker(REPORTS_DIGEST)
        checker.check("a", study_record(), REPORTS, None)
        checker.check("b", study_record(), REPORTS.replace(b"1", b"2"), None)
        self.assertEqual((checker.attempted, checker.failed), (2, 1))
        self.assertIn("b: report digest", checker.failures[0])

    def test_unpinned_digest_must_match_the_first_study(self):
        checker = benchlib.Checker(None)
        checker.check("a", study_record(), REPORTS, None)
        checker.check("b", study_record(), REPORTS + b"\n", None)
        self.assertEqual(checker.failed, 1)

    def test_broken_conservation_and_moved_counts_fail(self):
        checker = benchlib.Checker(None)
        checker.check("a", study_record(), REPORTS, None)
        checker.check("b", study_record(packets_conserved=False), REPORTS,
                      None)
        checker.check("c", study_record(probes_conserved=False), REPORTS,
                      None)
        moved = study_record()
        moved["counts"] = dict(moved["counts"], **{"tcp.connects": 151})
        checker.check("d", moved, REPORTS, None)
        self.assertEqual(checker.failed, 3)
        self.assertIn("packet conservation", checker.failures[0])
        self.assertIn("probe conservation", checker.failures[1])
        self.assertIn("exact counts", checker.failures[2])

    def test_a_process_error_is_a_failed_operation(self):
        checker = benchlib.Checker(None)
        checker.check("a", None, b"", "exceeded the 60 s limit")
        self.assertEqual((checker.attempted, checker.failed), (1, 1))


class LayerMetricsTest(unittest.TestCase):
    def test_ratios_use_their_stated_bases(self):
        metrics = benchlib.layer_metrics(harness_record(10.5),
                                         harness_record(10.0))
        self.assertEqual(metrics["shard.cpu_sum_s"], 3.0)
        self.assertEqual(metrics["shard.critical_path_share"], 6.0 / 8.0)
        self.assertEqual(metrics["sim.events_per_probe"], 3.0)
        self.assertEqual(metrics["sim.events_per_s"], 100.0)
        self.assertEqual(metrics["fabric.packets_per_probe"], 10.0)
        self.assertEqual(metrics["fabric.faulted_share"], 0.05)
        self.assertEqual(metrics["tcp.connects_per_probe"], 1.5)
        self.assertEqual(metrics["scanner.probes_per_s"], 12.5)
        self.assertEqual(metrics["scanner.retries_per_probe"], 2.0)
        self.assertEqual(metrics["scanner.responsive_share"], 0.1)
        self.assertEqual(metrics["scanner.unresolved_share"], 0.8)
        self.assertEqual(metrics["honeynet.events_per_s"], 20.0)
        self.assertEqual(metrics["telescope.packets_per_s"], 60.0)
        self.assertEqual(metrics["trace.dropped_share"], 0.25)
        self.assertEqual(metrics["bench.trace_overhead_s"], 0.5)
        self.assertEqual(metrics["shard.upnp_s"], 6.0)

    def test_covers_exactly_the_declared_per_layer_metrics(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = {m["name"] for m in json.load(handle)["per_layer"]}
        record = harness_record(1.0)
        self.assertEqual(set(benchlib.layer_metrics(record, record)), declared)

    def test_idle_layers_report_zero_not_an_error(self):
        record = harness_record(1.0, **{"phase.attack_month_s": 0.0,
                                         "trace.recorded": 0})
        metrics = benchlib.layer_metrics(record, record)
        self.assertEqual(metrics["honeynet.events_per_s"], 0.0)
        self.assertEqual(metrics["trace.dropped_share"], 0.0)
        self.assertEqual(metrics["bench.trace_overhead_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
