#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The emission test builds the perfbench binary (about 20 s the first time)
and runs every workload at a tiny --scale in both modes.
"""
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_raw(**counter_overrides):
    """A one-repetition untraced perfbench report whose counters conserve
    requests and bytes, with optional doctored counters."""
    counters = {
        "requests": 1000, "local_hits": 300, "routed_hits": 400,
        "relay_west_hits": 50, "relay_east_hits": 50, "misses": 200,
        "unreachable": 10, "transient_misses": 5, "handovers": 0,
        "bytes_requested": 10_000, "bytes_hit": 8_000, "uplink_bytes": 2_000,
        "isl_bytes": 0, "prefetch_bytes": 0,
    }
    counters.update(counter_overrides)
    rep = {"trace_seed": 3, "requests": 1000, "peak_rss_bytes": 200 * 2**20,
           "traced": False, "model_s": 0.1, "shell_s": 0.01, "schedule_s": 0.2,
           "sim_s": 0.001, "open_s": 0.05, "run_s": 1.0, "finish_s": 0.01,
           "variants": [{"name": "StarCDN", "latency_samples": 1000,
                         "latency_p50_ms": 20.0, "latency_p99_ms": 90.0,
                         "counters": counters}]}
    return {"workload": "video_starcdn", "seed": 1, "scale": 1.0,
            "traced": False, "threads": 4, "reps": [rep]}


class ChecksTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_conserving_report_passes(self):
        result = run.evaluate(fake_raw(), self.spec, {})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_broken_byte_conservation_fails_every_request(self):
        result = run.evaluate(fake_raw(uplink_bytes=1_999), self.spec, {})
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed_frac"], 1.0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_broken_request_conservation_fails_every_request(self):
        result = run.evaluate(fake_raw(misses=199), self.spec, {})
        self.assertEqual(result["failed_frac"], 1.0)

    def test_lost_requests_fail(self):
        raw = fake_raw()
        raw["reps"][0]["requests"] = 1001
        self.assertEqual(run.evaluate(raw, self.spec, {})["failed_frac"], 1.0)

    def test_out_of_band_hit_rate_fails(self):
        bands = {"video_starcdn": {"StarCDN": {
            "request_hit_rate": [0.9, 0.95], "normalized_uplink": [0.0, 1.0]}}}
        result = run.evaluate(fake_raw(), self.spec, bands)
        self.assertEqual(result["failed_frac"], 1.0)

    def test_nondeterministic_repetition_fails_only_itself(self):
        raw = fake_raw()
        second = copy.deepcopy(raw["reps"][0])
        second["variants"][0]["counters"]["handovers"] = 1
        raw["reps"].append(second)
        result = run.evaluate(raw, self.spec, {})
        self.assertEqual(result["failed_frac"], 0.5)

    def test_digest_tracks_counters(self):
        a = run.counters_digest(fake_raw())
        b = run.counters_digest(fake_raw(handovers=1))
        self.assertNotEqual(a, b)
        self.assertEqual(a, run.counters_digest(fake_raw()))


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(len(s["command"]), 32)
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))

    def test_names_and_units(self):
        s = self.spec
        names = [w["name"] for w in s["workloads"]] + [
            m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_reference_bands_cover_each_workload(self):
        reference = run.load_reference()
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], reference)
            for band in reference[w["name"]].values():
                for lo, hi in band.values():
                    self.assertLess(lo, hi)


class CompareTest(unittest.TestCase):
    def test_wide_spread_is_unresolved(self):
        base = [1.0, 1.5, 2.0, 2.5]
        self.assertEqual(compare.verdict(base, base, "higher", 0.1), "unresolved")

    def test_clear_regression_and_gain(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        slow = [0.80, 0.81, 0.79, 0.80, 0.80]
        self.assertEqual(compare.verdict(base, slow, "higher", 0.1), "regression")
        self.assertEqual(compare.verdict(slow, base, "higher", 0.1), "improved")
        self.assertEqual(compare.verdict(base, base, "higher", 0.1), "within")


class EmissionTest(unittest.TestCase):
    """Every workload emits exactly the metrics BENCHMARK.json names."""

    def test_every_workload_emits_every_metric(self):
        spec = run.load_spec()
        out = tempfile.mkdtemp(dir=run.RESULTS_DIR if os.path.isdir(
            run.RESULTS_DIR) else None)
        try:
            for traced, kind in ((0, "end_to_end"), (1, "per_layer")):
                for w in spec["workloads"]:
                    proc = subprocess.run(
                        [sys.executable, os.path.join(run.HERE, "run.py"),
                         "--workload", w["name"], "--seed", "3", "--seconds",
                         "0", "--trace", str(traced), "--scale", "0.02",
                         "--out", out],
                        cwd=run.ROOT, capture_output=True, text=True,
                        timeout=900)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    final = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(final), {"correct", "attempted",
                                                  "failed", "metrics"})
                    self.assertTrue(final["correct"], proc.stdout)
                    self.assertEqual(final["failed"], 0)
                    self.assertEqual(list(final["metrics"]),
                                     [m["name"] for m in spec[kind]])
                    for m in spec[kind]:
                        self.assertEqual(final["metrics"][m["name"]]["unit"],
                                         m["unit"])
        finally:
            shutil.rmtree(out)

    def test_fails_without_the_simulator_sources(self):
        bare = tempfile.mkdtemp(dir=run.RESULTS_DIR if os.path.isdir(
            run.RESULTS_DIR) else None)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "video_starcdn", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
