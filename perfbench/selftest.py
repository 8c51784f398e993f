"""Self-tests of the benchmark's own checks and outputs.

    python3 perfbench/selftest.py

Each check must reject a deliberately wrong input and accept a right one; the
metrics a run prints must be exactly those BENCHMARK.json names; the compare
command must flag a regression; and without the package source the benchmark
must fail without printing a result.  The end-to-end part runs every
workload for one second (about a minute in all).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads as W  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def sweep_rows(errors: dict[int, int], trials: int) -> list[dict]:
    return [{"param": str(n), "trials": str(trials), "error_rate": repr(e / trials)}
            for n, e in sorted(errors.items())]


class OwnArithmetic(unittest.TestCase):
    def test_wilson_matches_package(self):
        from noisysearch import wilson_interval
        for x, n in ((0, 10), (3, 440), (250, 1000), (1000, 1000)):
            self.assertEqual(checks.wilson(x, n), wilson_interval(x, n))

    def test_binomial_tail(self):
        self.assertEqual(checks.binomial_tail(0, 10, 0.3), 1.0)
        self.assertAlmostEqual(checks.binomial_tail(2, 2, 0.3), 0.09)
        self.assertAlmostEqual(checks.binomial_tail(1, 3, 0.5), 0.875)

    def test_bounds(self):
        self.assertAlmostEqual(checks.capacity_half(0.5), 0.0)
        self.assertAlmostEqual(checks.converse_tau(12, 1e-3, 0.1), 20.69286, places=4)
        self.assertAlmostEqual(checks.fano_error(10, 12, 0.1), 0.474163, places=5)


class ChecksReject(unittest.TestCase):
    def assertRejects(self, problems):
        self.assertTrue(problems, "a wrong input was accepted")

    def assertAccepts(self, problems):
        self.assertEqual(problems, [])

    def test_estimates_in_range(self):
        self.assertAccepts(checks.estimates_in_range([1, 4096], 4096, "x"))
        self.assertRejects(checks.estimates_in_range([0, 5], 4096, "x"))
        self.assertRejects(checks.estimates_in_range([4097], 4096, "x"))

    def test_error_rate(self):
        self.assertAccepts(checks.error_rate_within(1, 1000, 1e-3, "x"))
        self.assertAccepts(checks.error_rate_within(3, 440, 1e-3, "x"))
        self.assertRejects(checks.error_rate_within(50, 1000, 1e-3, "x"))
        self.assertRejects(checks.error_rate_within(4, 8, 1e-3, "x"))

    def test_mean_tau(self):
        lower = checks.converse_tau(12, 1e-3, 0.1)
        self.assertAccepts(checks.mean_tau_within(36.0, lower, 60.0, "x"))
        self.assertRejects(checks.mean_tau_within(12.0, lower, 60.0, "x"))
        self.assertRejects(checks.mean_tau_within(61.0, lower, 60.0, "x"))
        self.assertAccepts(checks.mean_tau_within(200.0, lower, None, "x"))

    def test_summary_matches_episodes(self):
        self.assertAccepts(checks.summary_matches_episodes(1, 2.0, 1, [1, 3], "x"))
        self.assertRejects(checks.summary_matches_episodes(0, 2.0, 1, [1, 3], "x"))
        self.assertRejects(checks.summary_matches_episodes(1, 2.5, 1, [1, 3], "x"))

    def test_sweep_rows(self):
        budgets = (10, 20, 30)
        good = sweep_rows({10: 9, 20: 5, 30: 2}, 10)
        self.assertAccepts(checks.sweep_rows_complete(good, budgets, 10, "x"))
        self.assertRejects(checks.sweep_rows_complete(good[:2], budgets, 10, "x"))
        self.assertRejects(checks.sweep_rows_complete(good, budgets, 11, "x"))

    def test_non_increasing(self):
        self.assertAccepts(checks.non_increasing_after({20: 500, 25: 505, 30: 300}, 1000, 20, "x"))
        self.assertRejects(checks.non_increasing_after({20: 100, 25: 400, 30: 300}, 1000, 20, "x"))
        self.assertAccepts(checks.non_increasing_after({10: 100, 15: 400, 20: 300}, 1000, 20, "x"))

    def test_median_dominated(self):
        good = {"median": {30: 260, 35: 250}, "dya": {30: 130, 35: 90}}
        self.assertAccepts(checks.median_dominated(good, 30))
        self.assertRejects(checks.median_dominated({**good, "hie": {30: 270, 35: 80}}, 30))

    def test_above_fano(self):
        self.assertAccepts(checks.above_fano({10: 297, 20: 200}, 300, (10, 20), 12, 0.1, "x"))
        self.assertRejects(checks.above_fano({10: 100, 20: 200}, 300, (10, 20), 12, 0.1, "x"))
        self.assertRejects(checks.above_fano({10: 297, 20: 0}, 300, (10, 20), 12, 0.1, "x"))

    def test_prefix_and_bytes(self):
        self.assertAccepts(checks.equal(b"a,b\n", b"a,b\n", "x"))
        self.assertRejects(checks.equal(b"a,b\n", b"a,c\n", "x"))
        self.assertRejects(checks.equal(97, 96, "x"))

    def test_replay(self):
        engine = [(30, 5), (40, 7), (35, 1)]
        self.assertAccepts(checks.replay_agrees(engine, list(engine), 0, "x"))
        self.assertRejects(checks.replay_agrees(engine, [(30, 5), (41, 7), (35, 1)], 0, "x"))
        self.assertAccepts(checks.replay_agrees(engine, [(30, 5), (41, 7), (35, 1)], 1, "x"))
        self.assertRejects(checks.replay_agrees(engine, engine[:2], 1, "x"))

    def test_partition_bound(self):
        self.assertAccepts(checks.partition_bound([3, 5, 5, 9], "x"))
        self.assertRejects(checks.partition_bound([4], "x"))


class Compare(unittest.TestCase):
    @staticmethod
    def runs(value: float, failed: int = 0) -> list[dict]:
        return [{"correct": True, "attempted": 100, "failed": failed,
                 "metrics": {"episodes_per_s": {"value": value * (1 + i / 100), "unit": "episodes/s"}}}
                for i in range(5)]

    def test_flags_regression_and_failed_share(self):
        base = {("vl-sort", 0): self.runs(100.0)}
        _, ok = compare.compare(base, {("vl-sort", 0): self.runs(99.0)}, spec())
        self.assertTrue(ok)
        _, ok = compare.compare(base, {("vl-sort", 0): self.runs(50.0)}, spec())
        self.assertFalse(ok)
        _, ok = compare.compare(base, {("vl-sort", 0): self.runs(100.0, failed=1)}, spec())
        self.assertFalse(ok)


class EndToEnd(unittest.TestCase):
    def run_bench(self, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300)

    def test_spec_matches_workloads(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], ["vl-connected", "vl-sort", "fl-sweep-cli"])
        self.assertEqual([m["name"] for m in s["end_to_end"]], list(W.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in s["per_layer"]],
                         W.per_layer_metrics())

    def test_emitted_names_equal_spec(self):
        s = spec()
        expected = {0: {m["name"]: m["unit"] for m in s["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in s["per_layer"]}}
        for workload, trace in (("vl-connected", 0), ("vl-sort", 0), ("fl-sweep-cli", 0),
                                ("vl-sort", 1)):
            with self.subTest(workload=workload, trace=trace):
                proc = self.run_bench(ROOT, workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected[trace])
                self.assertTrue(all(math.isfinite(v["value"]) and v["value"] != 0
                                    for k, v in result["metrics"].items()
                                    if k in expected[0]))

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = self.run_bench(Path(tmp), "vl-sort", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
