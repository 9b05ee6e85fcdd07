#!/usr/bin/env python3
"""Unit tests for the bench regression gate (tools/check_bench_regression.py).

The gate is itself CI-critical logic: a bug that silently skips a check lets
performance regressions merge, and a bug that fails spuriously blocks every
PR. These tests pin the three behaviors with the most edge-case surface:

  * the basic tolerance gates (check_lower_bound / check_upper_bound),
    including the boundary-exactly-at-floor case;
  * the machine-aware multi-core scaling gate: gated on a big runner,
    loudly skipped (never failed) on a small one, and skipped when the
    bench recorded no speedup entry at all;
  * the frontier zero-baseline path: a baseline that recorded 0 bytes must
    fall back to the absolute floor instead of the vacuous 0*(1+tol)
    ceiling — and a pre-field baseline must skip, not fail.

Run directly (python3 tools/test_check_bench_regression.py) or via the CI
gate (python3 -m unittest discover -s tools -p 'test_*.py').
"""

import copy
import io
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_bench_regression as gate


def run_check(fn, *args, **kwargs):
    """Call a gate function with a clean failure list; return (failures, out)."""
    gate.failures.clear()
    buf = io.StringIO()
    with redirect_stdout(buf):
        fn(*args, **kwargs)
    captured = list(gate.failures)
    gate.failures.clear()
    return captured, buf.getvalue()


class GateHygiene(unittest.TestCase):
    def test_failures_is_module_level_accumulator(self):
        # The CLI exit code rides on this list; make sure helpers append to
        # it rather than raising.
        failures, _ = run_check(gate.fail, "boom")
        self.assertEqual(failures, ["boom"])


class ToleranceGates(unittest.TestCase):
    def test_lower_bound_triggers_below_floor(self):
        failures, _ = run_check(
            gate.check_lower_bound, "m", 74.9, 100.0, 0.25)
        self.assertEqual(len(failures), 1)
        self.assertIn("m:", failures[0])

    def test_lower_bound_passes_at_exact_floor(self):
        failures, _ = run_check(gate.check_lower_bound, "m", 75.0, 100.0, 0.25)
        self.assertEqual(failures, [])

    def test_lower_bound_passes_on_improvement(self):
        failures, _ = run_check(gate.check_lower_bound, "m", 140.0, 100.0, 0.25)
        self.assertEqual(failures, [])

    def test_upper_bound_triggers_above_ceiling(self):
        failures, _ = run_check(
            gate.check_upper_bound, "m", 125.1, 100.0, 0.25)
        self.assertEqual(len(failures), 1)

    def test_upper_bound_passes_at_exact_ceiling(self):
        failures, _ = run_check(gate.check_upper_bound, "m", 125.0, 100.0, 0.25)
        self.assertEqual(failures, [])

    def test_zero_baseline_upper_bound_rejects_any_growth(self):
        # The generic gate IS vacuous at a zero baseline — this pins the
        # behavior the frontier_bytes special case exists to compensate for.
        failures, _ = run_check(gate.check_upper_bound, "m", 1.0, 0.0, 0.25)
        self.assertEqual(len(failures), 1)


class ScalingGate(unittest.TestCase):
    @staticmethod
    def record(cores, speedup, threads=None):
        threads = gate.SCALING_GATE_THREADS if threads is None else threads
        return {
            "cores": cores,
            "scaling": [{"threads": threads, "speedup_x": speedup}],
        }

    def test_fails_below_floor_on_big_runner(self):
        failures, _ = run_check(
            gate.check_scaling_speedup,
            self.record(gate.SCALING_MIN_CORES, 1.2), "explore")
        self.assertEqual(len(failures), 1)
        self.assertIn("speedup", failures[0])

    def test_passes_at_floor_on_big_runner(self):
        failures, _ = run_check(
            gate.check_scaling_speedup,
            self.record(8, gate.SCALING_MIN_SPEEDUP_X), "explore")
        self.assertEqual(failures, [])

    def test_small_runner_skips_loudly_instead_of_failing(self):
        failures, out = run_check(
            gate.check_scaling_speedup,
            self.record(gate.SCALING_MIN_CORES - 1, 1.0), "explore")
        self.assertEqual(failures, [])
        self.assertIn("scaling not gated", out)

    def test_no_speedup_entry_is_a_skip_not_a_crash(self):
        failures, out = run_check(
            gate.check_scaling_speedup, {"cores": 16, "scaling": []}, "fuzz")
        self.assertEqual(failures, [])
        self.assertIn("not gated", out)

    def test_wrong_thread_count_entry_is_not_gated(self):
        failures, _ = run_check(
            gate.check_scaling_speedup,
            self.record(16, 0.5, threads=gate.SCALING_GATE_THREADS + 1),
            "explore")
        self.assertEqual(failures, [])

    def test_hardware_concurrency_field_is_accepted(self):
        rec = self.record(0, 1.0)
        del rec["cores"]
        rec["hardware_concurrency"] = 2
        failures, out = run_check(
            gate.check_scaling_speedup, rec, "explore")
        self.assertEqual(failures, [])
        self.assertIn("2-core", out)


class FrontierZeroBaseline(unittest.TestCase):
    """check_explore's frontier_bytes handling around a 0-byte baseline."""

    BASE_RUN = {
        "mode": "sequential_fingerprint",
        "dedupe_mode": "fingerprint",
        "states_per_sec": 100.0,
        "cow_bytes_per_state": 100.0,
        "canonical_encodings": 0,
    }

    def explore_doc(self, frontier=None):
        run = dict(self.BASE_RUN)
        if frontier is not None:
            run["frontier_bytes"] = frontier
        return {
            "runs": [run],
            "parallel_counters_match_sequential": True,
            "cow_copy_reduction_x": 10.0,
        }

    def run_explore(self, cur_frontier, base_frontier):
        cur = self.explore_doc(cur_frontier)
        base = self.explore_doc(base_frontier)
        return run_check(gate.check_explore, cur, base, 0.25)

    def test_zero_baseline_enforces_absolute_floor(self):
        failures, _ = self.run_explore(
            gate.FRONTIER_ABS_FLOOR_BYTES + 1, 0)
        self.assertTrue(
            any("frontier_bytes" in f and "zero baseline" in f
                for f in failures), failures)

    def test_zero_baseline_allows_small_frontier(self):
        failures, out = self.run_explore(gate.FRONTIER_ABS_FLOOR_BYTES, 0)
        self.assertFalse(any("frontier_bytes" in f for f in failures))
        self.assertIn("absolute floor", out)

    def test_missing_baseline_field_skips(self):
        failures, out = self.run_explore(10 * gate.FRONTIER_ABS_FLOOR_BYTES,
                                         None)
        self.assertFalse(any("frontier_bytes" in f for f in failures))
        self.assertIn("no baseline field", out)

    def test_positive_baseline_uses_relative_ceiling(self):
        failures, _ = self.run_explore(1000, 100)
        self.assertTrue(any("frontier_bytes" in f for f in failures))
        failures, _ = self.run_explore(100, 100)
        self.assertFalse(any("frontier_bytes" in f for f in failures))

    def test_parallel_mode_frontier_is_never_gated(self):
        cur = self.explore_doc(10 * gate.FRONTIER_ABS_FLOOR_BYTES)
        base = self.explore_doc(0)
        for doc in (cur, base):
            doc["runs"][0] = dict(doc["runs"][0], mode="parallel_fingerprint")
        failures, _ = run_check(gate.check_explore, cur, base, 0.25)
        self.assertFalse(any("frontier_bytes" in f for f in failures))


class ExploreHardInvariants(unittest.TestCase):
    def test_parallel_counter_divergence_fails(self):
        doc = FrontierZeroBaseline().explore_doc()
        cur = copy.deepcopy(doc)
        cur["parallel_counters_match_sequential"] = False
        failures, _ = run_check(gate.check_explore, cur, doc, 0.25)
        self.assertTrue(any("parallel" in f for f in failures))

    def test_canonical_encodings_in_fingerprint_mode_fail(self):
        doc = FrontierZeroBaseline().explore_doc()
        cur = copy.deepcopy(doc)
        cur["runs"][0]["canonical_encodings"] = 7
        failures, _ = run_check(gate.check_explore, cur, doc, 0.25)
        self.assertTrue(any("canonical encodings" in f for f in failures))

    def test_canonical_encodings_in_symmetry_mode_fail(self):
        doc = FrontierZeroBaseline().explore_doc()
        doc["runs"][0]["dedupe_mode"] = "symmetry"
        cur = copy.deepcopy(doc)
        cur["runs"][0]["canonical_encodings"] = 7
        failures, _ = run_check(gate.check_explore, cur, doc, 0.25)
        self.assertTrue(any("canonical encodings in symmetry mode" in f
                            for f in failures), failures)

    def test_zero_canonical_encodings_in_symmetry_mode_pass(self):
        doc = FrontierZeroBaseline().explore_doc()
        doc["runs"][0]["dedupe_mode"] = "symmetry"
        failures, out = run_check(gate.check_explore, doc, doc, 0.25)
        self.assertFalse(any("canonical" in f for f in failures), failures)
        self.assertIn("0 canonical encodings", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
