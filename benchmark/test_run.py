"""Unit tests for run.py's statistics, bookkeeping and result check.

  cd benchmark && python3 -m unittest test_run
"""

import contextlib
import io
import json
import unittest
from unittest import mock

import run


def fake_output(scale=1.0, failed=0, fork2joins=10):
    """One cilkm_bench process's output with the planned sample counts."""
    counters = {k: 10 for k in (
        "view_create_ns", "view_insert_ns", "view_transfer_ns", "hypermerge_ns",
        "views_created", "views_transferred", "hypermerges", "steals",
        "stolen_frames", "steal_attempts", "joining_steals", "parks", "wakes",
        "fibers_allocated", "serial_degrades", "fiber_fallbacks", "steal_lat_ns",
        "steal_lat_count", "mem.views.refills", "mem.spa_pages.refills",
        "mem.hypermap_nodes.refills", "mem.frames.refills")}
    cells = {}
    for cell, reps in run.planned_reps(False).items():
        cells[cell] = {"reps": reps, "samples": [scale * (i + 1) / 1000 for i in range(reps)]}
        if cell in run.P_CELLS:
            cells[cell]["counters"] = dict(counters)
    return {"cells": cells, "setup_s": 0.5 * scale, "peak_rss_kb": 2048,
            "updates": 1000, "fork2joins": fork2joins,
            "attempted": run.planned_attempts(False), "failed": failed}


def fake_traced_output():
    profile = {"runs": 10, "work_ns": 40_000_000, "span_ns": 10_000_000,
               "burdened_span_ns": 20_000_000}
    return {"cells": {c: {"reps": 10, "samples": [0.02] * 10, "profile": dict(profile)}
                      for c in run.planned_reps(True)},
            "attempted": run.planned_attempts(True), "failed": 0, "trace_written": True}


class TailPercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.tail_percentile(list(range(1, 101)), 0.9), 90)
        self.assertIsNone(run.tail_percentile(list(range(1, 100)), 0.9))
        self.assertIsNone(run.tail_percentile(list(range(1, 33)), 0.9))

    def test_unsorted_input(self):
        samples = list(reversed(range(1, 201)))
        self.assertEqual(run.tail_percentile(samples, 0.9), 180)


class SampleCountTest(unittest.TestCase):
    def test_planned_reps(self):
        reps = run.planned_reps(False)
        self.assertEqual(reps["mm_P"], 25)
        self.assertEqual(reps["hypermap_P"], 25)
        for cell in ("mm_1", "hypermap_1", "serial", "base"):
            self.assertEqual(reps[cell], 8)
        self.assertEqual(run.planned_reps(True),
                         {"mm_P": 10, "hypermap_P": 10, "mm_1": 10, "hypermap_1": 10})

    def test_four_processes_give_100_and_32_samples(self):
        counts = run.sample_counts([fake_output() for _ in range(run.MIN_PROCESSES)])
        self.assertEqual(counts["mm_P"], 100)
        self.assertEqual(counts["hypermap_P"], 100)
        self.assertEqual(counts["serial"], 32)
        # 100 samples is the smallest count with a p90 to report.
        p90 = run.tail_percentile(
            [x for _ in range(4) for x in fake_output()["cells"]["mm_P"]["samples"]], 0.9)
        self.assertIsNotNone(p90)


class FailFracTest(unittest.TestCase):
    def run_workload_with(self, results):
        with mock.patch.object(run, "run_process", side_effect=results), \
                contextlib.redirect_stderr(io.StringIO()):
            return run.run_workload("lookup", 1, 4, seconds=0, traced=False,
                                    deadline=run.time.monotonic() + 100)

    def test_clean_run(self):
        rec = self.run_workload_with([(fake_output(), None)] * 4)
        self.assertEqual(rec["fail_frac"], 0.0)
        self.assertTrue(rec["correct"])

    def test_failed_verification_counts(self):
        rec = self.run_workload_with([(fake_output(failed=2), None)] + [(fake_output(), None)] * 3)
        self.assertEqual(rec["failed"], 2)
        self.assertAlmostEqual(rec["fail_frac"], 2 / (4 * run.planned_attempts(False)))
        self.assertFalse(rec["correct"])

    def test_crashed_process_counts_all_its_reps(self):
        crash = (None, "exit code -11")
        rec = self.run_workload_with([crash] + [(fake_output(), None)] * 3)
        planned = run.planned_attempts(False)
        self.assertEqual(rec["attempted"], 4 * planned)
        self.assertEqual(rec["failed"], planned)
        self.assertAlmostEqual(rec["fail_frac"], 1 / 4)
        self.assertFalse(rec["correct"])
        self.assertEqual(rec["processes"], 3)

    def test_fail_frac_of_nothing_is_total_failure(self):
        self.assertEqual(run.fail_frac(0, 0), 1.0)


class MetricNamesTest(unittest.TestCase):
    def test_every_benchmark_json_metric_is_a_number_with_its_unit(self):
        spec = json.loads(run.BENCHMARK_JSON.read_text())
        # A workload with no fork count (lookup) and one with (spawn).
        for fork2joins in (0, 10):
            outputs = [fake_output(fork2joins=fork2joins) for _ in range(4)]
            produced = {**run.end_to_end(outputs),
                        **run.per_layer(outputs, 4, fake_traced_output())}
            self.assertEqual(set(run.end_to_end(outputs)),
                             {m["name"] for m in spec["end_to_end"]})
            for m in spec["end_to_end"] + spec["per_layer"]:
                value, unit = produced[m["name"]]
                self.assertIsNotNone(value, m["name"])
                self.assertEqual(unit, m["unit"], m["name"])

    def test_spawn_ns_only_with_a_fork_count(self):
        layers = run.per_layer([fake_output(fork2joins=0) for _ in range(4)], 4)
        self.assertIsNone(layers["runtime.spawn_ns"][0])
        layers = run.per_layer([fake_output(fork2joins=10) for _ in range(4)], 4)
        self.assertIsNotNone(layers["runtime.spawn_ns"][0])


class CheckTest(unittest.TestCase):
    SPEC = {"workloads": [{"name": "lookup", "why": "."}],
            "end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
                {"name": "speedup", "unit": "ratio", "better": "higher", "bound": 0.10}]}

    @staticmethod
    def result(wall, speedup, failed=0, process_errors=()):
        attempted = 100
        return {"workloads": {"lookup": {
            "end_to_end": {"wall_s": wall, "speedup": speedup},
            "correct": failed == 0 and not process_errors,
            "attempted": attempted, "failed": failed,
            "fail_frac": run.fail_frac(attempted, failed),
            "process_errors": list(process_errors)}}}

    def test_within_bounds(self):
        old = self.result(1.0, 3.0)
        self.assertEqual(run.check(old, self.result(1.09, 2.8), self.SPEC), [])
        self.assertEqual(run.check(old, self.result(0.5, 6.0), self.SPEC), [])

    def test_lower_is_better_regression(self):
        problems = run.check(self.result(1.0, 3.0), self.result(1.2, 3.0), self.SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("lookup wall_s", problems[0])

    def test_higher_is_better_regression(self):
        problems = run.check(self.result(1.0, 3.0), self.result(1.0, 2.5), self.SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("lookup speedup", problems[0])

    def test_only_benchmark_json_workloads_are_bounded(self):
        old = self.result(1.0, 3.0)
        new = self.result(1.0, 3.0)
        old["workloads"]["pbfs"] = {"end_to_end": {"wall_s": 1.0}}
        new["workloads"]["pbfs"] = {"end_to_end": {"wall_s": 9.0}, "correct": False}
        self.assertEqual(run.check(old, new, self.SPEC), [])

    def test_failed_reps_fail_the_check(self):
        problems = run.check(self.result(1.0, 3.0), self.result(1.0, 3.0, failed=1), self.SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("lookup: not correct", problems[0])

    def test_crashed_process_fails_the_check(self):
        new = self.result(1.0, 3.0, process_errors=["exit code -11"])
        problems = run.check(self.result(1.0, 3.0), new, self.SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("exit code -11", problems[0])

    def test_missing_workload_fails_the_check(self):
        problems = run.check(self.result(1.0, 3.0), {"workloads": {}}, self.SPEC)
        self.assertEqual(problems, ["lookup: no result"])


if __name__ == "__main__":
    unittest.main()
