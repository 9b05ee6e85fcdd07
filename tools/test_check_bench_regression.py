#!/usr/bin/env python3
"""Unit tests for the bench regression gate (tools/check_bench_regression.py).

The gate is itself CI-critical logic: a bug that silently skips a check lets
performance regressions merge, and a bug that fails spuriously blocks every
PR. The tests are one table. Each case is a (current, baseline) document
pair for one bench, or for one stand-alone row, plus the set of row labels
the gate must fail and, where the case is about a skip, text the gate must
print instead.

Run directly (python3 tools/test_check_bench_regression.py), through ctest
(the check_bench_regression_unit test), or with
python3 -m unittest discover -s tools -p 'test_*.py'.
"""

import copy
import io
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_bench_regression as gate

FLOOR = gate.FRONTIER_ABS_FLOOR_BYTES
SEQ = "runs[mode=sequential_fingerprint]"
SPEEDUP = f"scaling[threads={gate.SCALING_GATE_THREADS}].speedup_x"


class Case(NamedTuple):
    name: str
    target: object  # a bench file name (all its ROWS) or one gate.Row
    cur: dict
    base: dict
    fails: set = set()
    prints: str = None


def run_gate(target, cur, base, tol=0.25):
    """Runs the gate with a clean failure list; returns (failed labels, out)."""
    gate.failures.clear()
    buf = io.StringIO()
    with redirect_stdout(buf):
        if isinstance(target, gate.Row):
            gate.evaluate(target, cur, base, tol)
        else:
            gate.check(target, cur, base, tol)
    failed = {f.split(": ", 1)[0] for f in gate.failures}
    gate.failures.clear()
    return failed, buf.getvalue()


# --- document builders -------------------------------------------------------

def row(rule, bound=None):
    return gate.Row("T", "m", rule, bound)


def explore_doc(frontier=None, **run_fields):
    run = {
        "mode": "sequential_fingerprint",
        "dedupe_mode": "fingerprint",
        "states_per_sec": 100.0,
        "cow_bytes_per_state": 100.0,
        "canonical_encodings": 0,
        **run_fields,
    }
    if frontier is not None:
        run["frontier_bytes"] = frontier
    return {
        "runs": [run],
        "budgeted_counters_match_sequential": True,
        "cow_copy_reduction_x": 10.0,
    }


def with_(doc, **fields):
    doc = copy.deepcopy(doc)
    doc.update(fields)
    return doc


def scaling_doc(speedup, parallelism=None, threads=gate.SCALING_GATE_THREADS):
    doc = {"scaling": [{"threads": threads, "speedup_x": speedup}]}
    if parallelism is not None:
        doc["spin_parallelism"] = parallelism
    return doc


def reduction_doc(ratio, complete=True):
    return {"reduction": {
        "verdict_match": True, "pinned_violation_found": True,
        "reorder_both_complete": complete, "reorder_reduction_x": ratio}}


def fuzz_doc(walks=256, rate=1000.0, tests_run=10):
    return {"walks": walks, "walks_per_sec": rate,
            "thread_determinism_ok": True,
            "minimize": {"determinism_ok": True, "tests_run": tests_run}}


E = gate.EXPLORE
F = gate.FUZZ

CASES = [
    # Tolerance rules (higher / lower) at, below and beyond their bounds.
    Case("higher_fails_below_floor", row("higher"), {"m": 74.9}, {"m": 100.0},
         {"m"}),
    Case("higher_passes_at_exact_floor", row("higher"), {"m": 75.0},
         {"m": 100.0}),
    Case("higher_passes_on_improvement", row("higher"), {"m": 140.0},
         {"m": 100.0}),
    Case("lower_fails_above_ceiling", row("lower"), {"m": 125.1},
         {"m": 100.0}, {"m"}),
    Case("lower_passes_at_exact_ceiling", row("lower"), {"m": 125.0},
         {"m": 100.0}),
    # The multiplicative ceiling is vacuous at a zero baseline; a row
    # without an absolute bound therefore rejects any growth.
    Case("lower_zero_baseline_rejects_any_growth", row("lower"), {"m": 1.0},
         {"m": 0.0}, {"m"}),
    Case("lower_zero_baseline_uses_bound_at_limit", row("lower", 10),
         {"m": 10}, {"m": 0}),
    Case("lower_zero_baseline_uses_bound_past_limit", row("lower", 10),
         {"m": 11}, {"m": 0}, {"m"}),
    # Absolute rules ignore the baseline value.
    Case("at_least_passes_at_bound", row("at_least", 5), {"m": 5},
         {"m": 0}),
    Case("at_least_fails_below_bound", row("at_least", 5), {"m": 4.99},
         {"m": 9}, {"m"}),
    Case("at_most_passes_at_bound", row("at_most", 0), {"m": 0}, {"m": 7}),
    Case("at_most_fails_above_bound", row("at_most", 0), {"m": 1}, {"m": 0},
         {"m"}),
    Case("true_passes_on_true", row("true"), {"m": True}, {"m": False}),
    Case("true_fails_on_false", row("true"), {"m": False}, {"m": True},
         {"m"}),
    Case("true_fails_on_truthy_non_bool", row("true"), {"m": 1}, {"m": True},
         {"m"}),
    Case("same_passes_on_equal", row("same"), {"m": False}, {"m": False}),
    Case("same_fails_on_change", row("same"), {"m": 11}, {"m": 10}, {"m"}),
    # One missing-field policy for every rule.
    Case("field_missing_from_baseline_skips_loudly", row("true"),
         {"m": False}, {}, prints="m: no baseline, not gated"),
    Case("field_missing_from_current_fails", row("higher"), {}, {"m": 1.0},
         {"m"}),
    Case("dotted_field_missing_from_current_fails",
         gate.Row("T", "a.b", "same"), {"a": {}}, {"a": {"b": 1}}, {"a.b"}),
    Case("list_element_missing_from_current_fails",
         gate.Row("T", "runs[mode].x", "same"), {"runs": []},
         {"runs": [{"mode": "m1", "x": 1}]}, {"runs[mode=m1].x"}),
    Case("new_list_element_skips_loudly",
         gate.Row("T", "runs[mode].x", "same"),
         {"runs": [{"mode": "m1", "x": 1}]}, {"runs": []},
         prints="runs[mode=m1].x: no baseline"),
    Case("duplicate_list_keys_fail",
         gate.Row("T", "runs[mode].x", "same"),
         {"runs": [{"mode": "m1", "x": 1}, {"mode": "m1", "x": 1}]},
         {"runs": [{"mode": "m1", "x": 1}]}, {"runs[mode]"}),

    # Multi-core scaling: gated only where the spin measured real CPUs.
    Case("scaling_fails_below_floor_on_parallel_runner", F,
         scaling_doc(1.2, 4.0), scaling_doc(1.0), {SPEEDUP}),
    Case("scaling_passes_at_floor_on_parallel_runner", F,
         scaling_doc(gate.SCALING_MIN_SPEEDUP_X, 8.0), scaling_doc(1.0)),
    Case("scaling_small_runner_skips_loudly", F, scaling_doc(1.0, 2.2),
         scaling_doc(1.0), prints=f"{SPEEDUP}: not gated"),
    Case("scaling_parallelism_at_threshold_is_gated", F,
         scaling_doc(1.0, gate.SCALING_MIN_PARALLELISM), scaling_doc(1.0),
         {SPEEDUP}),
    Case("scaling_cores_alone_do_not_enable_the_gate", F,
         with_(scaling_doc(1.0), cores=16), scaling_doc(1.0),
         prints=f"{SPEEDUP}: not gated"),
    Case("scaling_no_speedup_entry_skips_loudly", F, {"scaling": []},
         {"scaling": []}, prints="not gated"),
    Case("scaling_wrong_thread_count_entry_is_not_gated", F,
         scaling_doc(0.5, 16.0, threads=gate.SCALING_GATE_THREADS + 1),
         scaling_doc(0.5, threads=gate.SCALING_GATE_THREADS + 1)),

    # frontier_bytes: relative ceiling, absolute ceiling at a zero
    # baseline.
    Case("frontier_zero_baseline_enforces_absolute_ceiling", E,
         explore_doc(FLOOR + 1), explore_doc(0), {f"{SEQ}.frontier_bytes"}),
    Case("frontier_zero_baseline_allows_small_frontier", E,
         explore_doc(FLOOR), explore_doc(0),
         prints=f"{SEQ}.frontier_bytes: lower"),
    Case("frontier_missing_baseline_field_skips", E,
         explore_doc(10 * FLOOR), explore_doc(),
         prints=f"{SEQ}.frontier_bytes: no baseline"),
    Case("frontier_positive_baseline_uses_relative_ceiling", E,
         explore_doc(1000), explore_doc(100), {f"{SEQ}.frontier_bytes"}),
    Case("frontier_positive_baseline_passes_when_flat", E,
         explore_doc(100), explore_doc(100)),

    # Explorer hard invariants.
    Case("budgeted_counter_divergence_fails", E,
         with_(explore_doc(), budgeted_counters_match_sequential=False),
         explore_doc(), {"budgeted_counters_match_sequential"}),
    Case("canonical_encodings_in_fingerprint_mode_fail", E,
         explore_doc(canonical_encodings=7), explore_doc(),
         {f"{SEQ}.canonical_encodings"}),
    Case("canonical_encodings_in_symmetry_mode_fail", E,
         explore_doc(canonical_encodings=7, dedupe_mode="symmetry"),
         explore_doc(dedupe_mode="symmetry"),
         {f"{SEQ}.canonical_encodings"}),
    Case("zero_canonical_encodings_in_symmetry_mode_pass", E,
         explore_doc(dedupe_mode="symmetry"),
         explore_doc(dedupe_mode="symmetry"),
         prints=f"{SEQ}.canonical_encodings: at_most 0"),
    Case("canonical_encodings_in_exact_mode_are_not_gated", E,
         explore_doc(canonical_encodings=7, dedupe_mode="exact"),
         explore_doc(dedupe_mode="exact")),
    Case("dedupe_mode_change_fails_once_and_skips_the_run", E,
         explore_doc(states_per_sec=1.0, dedupe_mode="exact"), explore_doc(),
         {f"{SEQ}.dedupe_mode"}, prints="dedupe_mode differs"),
    Case("cow_bytes_per_state_absolute_ceiling", E,
         explore_doc(cow_bytes_per_state=gate.COW_BYTES_PER_STATE_ABS_MAX + 1),
         explore_doc(cow_bytes_per_state=190.0),
         {f"{SEQ}.cow_bytes_per_state"}),

    # Reduction: sound, complete, and reducing by at least 5x.
    Case("reduction_ratio_below_absolute_floor_fails", E,
         reduction_doc(4.9), reduction_doc(5.8),
         {"reduction.reorder_reduction_x"}),
    Case("reduction_ratio_not_gated_when_truncated", E,
         reduction_doc(1.0, complete=False), reduction_doc(5.8),
         {"reduction.reorder_both_complete"}, prints="truncated smoke run"),
    Case("reduction_missing_pinned_violation_fails", E,
         {"reduction": dict(reduction_doc(6.0)["reduction"],
                            pinned_violation_found=False)},
         reduction_doc(6.0), {"reduction.pinned_violation_found"}),
    Case("reduction_record_missing_from_current_fails", E, {},
         reduction_doc(6.0),
         {"reduction.verdict_match", "reduction.pinned_violation_found",
          "reduction.reorder_both_complete"}),

    # Fuzz: determinism always, throughput only at equal campaign size.
    Case("fuzz_walk_count_change_skips_throughput", gate.FUZZ,
         fuzz_doc(walks=32, rate=1.0), fuzz_doc(),
         prints="walk count differs"),
    Case("fuzz_throughput_drop_fails", gate.FUZZ, fuzz_doc(rate=700.0),
         fuzz_doc(), {"walks_per_sec"}),
    Case("fuzz_tests_run_change_fails", gate.FUZZ, fuzz_doc(tests_run=11),
         fuzz_doc(), {"minimize.tests_run"}),
]


class GateCases(unittest.TestCase):
    def test_failures_is_module_level_accumulator(self):
        # The CLI exit code rides on this list; make sure helpers append to
        # it rather than raising.
        gate.failures.clear()
        with redirect_stdout(io.StringIO()):
            gate.fail("boom")
        self.assertEqual(gate.failures, ["boom"])
        gate.failures.clear()

    def test_every_row_names_a_known_bench_and_rule(self):
        for r in gate.ROWS:
            self.assertIn(r.bench, gate.BENCHES, r)
            self.assertIn(r.rule, gate.RULES, r)
            if r.rule in ("at_least", "at_most"):
                self.assertIsNotNone(r.bound, r)
            elif r.rule != "lower":
                self.assertIsNone(r.bound, r)


def make_test(case):
    def test(self):
        failed, out = run_gate(case.target, case.cur, case.base)
        self.assertEqual(failed, set(case.fails), out)
        if case.prints is not None:
            self.assertIn(case.prints, out)
    return test


for _case in CASES:
    assert not hasattr(GateCases, f"test_{_case.name}"), _case.name
    setattr(GateCases, f"test_{_case.name}", make_test(_case))


if __name__ == "__main__":
    unittest.main(verbosity=2)
