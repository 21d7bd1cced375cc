#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic; needs no build.

    python3 perfbench/selftest.py
"""

import argparse
import contextlib
import io
import json
import re
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

with open(run.ROOT / "BENCHMARK.json") as f:
    BENCH = json.load(f)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def measured():
    """Plausible end-to-end measurements of one run."""
    samples = [float(i) for i in range(1, 101)]
    return {
        "wall_s": 6.3,
        "cpu_s": 12.1,
        "peak_rss_mb": 20.6,
        "setup_s": 0.002,
        "sweep_cells_per_s": 40.0,
        "probe_cold_ms": samples,
        "probe_warm_ms": samples,
    }


class MetricNames(unittest.TestCase):
    def test_names_match_the_allowed_pattern(self):
        for kind in ("end_to_end", "per_layer"):
            for m in BENCH[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertEqual(NAME.fullmatch(m["name"]).group(0), m["name"])
        for w in BENCH["workloads"]:
            self.assertTrue(NAME.fullmatch(w["name"]), w["name"])

    def test_workloads_are_the_ones_the_runner_knows(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], run.WORKLOADS)

    def test_every_declared_metric_reaches_the_result_line(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                out = {"measured": measured(), "iterations": 1}
                out["layers"] = {name: 1.0 for name in run.declared("per_layer")}
                result = emit(workload, trace, out)
                self.assertEqual(set(result["metrics"]), set(run.declared(kind)), (workload, kind))

    def test_a_missing_metric_refuses_to_print_a_result(self):
        layers = {name: 1.0 for name in run.declared("per_layer")}
        del layers["serve.ping_rtt_ms"]
        with self.assertRaises(run.BenchError):
            emit("serve-mixed", 1, {"layers": layers})


def emit(workload, trace, out):
    """Runs `run.emit` and returns the parsed result line."""
    args = argparse.Namespace(workload=workload, seed=2013, seconds=1, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(args, run.Tally(), out, (time.perf_counter() - 1, run.steal_now()))
    return json.loads(buf.getvalue().splitlines()[-1])


class FailureAccounting(unittest.TestCase):
    def test_injected_table_mismatch_raises_failed_ratio(self):
        tally = run.Tally()
        tally.check_tables("== Fig ==\n1.00", "== Fig ==\n1.00", "same")
        self.assertEqual(tally.failed_ratio, 0)
        tally.check_tables("== Fig ==\n1.01", "== Fig ==\n1.00", "injected")
        self.assertEqual((tally.failed, tally.attempted), (1, 2))
        self.assertGreater(tally.failed_ratio, 0)

    def test_injected_busy_reply_raises_failed_ratio(self):
        tally = run.Tally()
        tally.check_reply({"status": "ok"}, "fine")
        busy = {"status": "error", "error": {"code": "busy", "retry_after_ms": 250}}
        self.assertFalse(tally.check_reply(busy, "injected"))
        self.assertEqual((tally.failed, tally.attempted), (1, 2))
        self.assertIn("busy", tally.notes[0])

    def test_sections_ignore_timing_lines(self):
        a = "== T ==\nx 1\n\n[fig1 completed in 3.3s]\n\n== U ==\ny\n\n[fig2 completed in 0.1s]\n"
        b = a.replace("3.3s", "9.9s").replace("0.1s", "7.0s")
        self.assertEqual(run.sections(a), run.sections(b))
        self.assertEqual(run.sections(a)["fig2"], "== U ==\ny")


class Percentiles(unittest.TestCase):
    def test_reports_its_sample_count(self):
        p = run.percentile([float(i) for i in range(1, 101)], 0.9)
        self.assertEqual((p["value"], p["n"], p["beyond"]), (90.0, 100, 10))

    def test_enough_probes_for_a_trustworthy_p90(self):
        p = run.percentile(list(range(run.MIN_PROBES)), 0.9)
        self.assertGreaterEqual(p["beyond"], 10)

    def test_rejects_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)


if __name__ == "__main__":
    unittest.main()
