#!/usr/bin/env python3
"""Diff fresh BENCH_*.json runs against the committed baselines.

Gates the bench trajectory in CI: a change that slows the explorer's
states/sec or inflates the bytes a copy-on-write World fork materializes
by more than the tolerance (default 25%) fails the build. Counters that
must hold exactly (parallel/sequential counter equality, accounting
identity) are checked as hard invariants, not tolerances.

Usage:
    python3 tools/check_bench_regression.py \
        [--baseline-dir bench/baselines] [--current-dir build/bench] \
        [--tolerance 0.25]

Baselines live in bench/baselines/. To accept a new performance level on
purpose, re-run the benches and copy the fresh JSON over the baseline in
the same commit as the change that moved it.
"""

import argparse
import json
import pathlib
import sys

BENCHES = [
    "BENCH_explore_exhaustive.json",
    "BENCH_proof_harness_41.json",
    "BENCH_proof_harness_65.json",
    "BENCH_fuzz.json",
]

failures = []

# Absolute ceiling used when a baseline recorded frontier_bytes == 0 (the
# multiplicative tolerance is vacuous at zero): 1 MiB of in-memory frontier
# nodes on spaces this small means node compression stopped working.
FRONTIER_ABS_FLOOR_BYTES = 1 << 20

# Multi-core scaling contract: on a runner with at least SCALING_MIN_CORES
# cores, the work-stealing pool must deliver SCALING_MIN_SPEEDUP_X the
# serial throughput at SCALING_GATE_THREADS workers. The gate keys on the
# `cores` field the bench records about the machine it RAN on — a 1-core
# runner legitimately reports ~1x, so the gate announces itself skipped
# loudly instead of failing (or silently passing a meaningless number).
SCALING_MIN_CORES = 4
SCALING_GATE_THREADS = 4
SCALING_MIN_SPEEDUP_X = 3.0

# Absolute ceiling on the tracked sequential CAS exploration's COW traffic:
# the slab layout (shared value payloads + ignored-delivery skip) landed it
# at ~151 B/state, and the relative tolerance alone would let it creep back
# up baseline-by-baseline. Machine-independent: it counts logical bytes
# materialized per visited state, not wall-clock.
COW_BYTES_PER_STATE_ABS_MAX = 200.0
COW_ABS_GATED_MODE = "sequential_fingerprint"


def fail(msg):
    failures.append(msg)
    print(f"  FAIL {msg}")


def ok(msg):
    print(f"  ok   {msg}")


def check_lower_bound(name, current, baseline, tolerance):
    """Higher is better (e.g. states/sec): fail below baseline*(1-tol)."""
    floor = baseline * (1.0 - tolerance)
    line = f"{name}: {current:.6g} vs baseline {baseline:.6g} (floor {floor:.6g})"
    if current < floor:
        fail(line)
    else:
        ok(line)


def check_upper_bound(name, current, baseline, tolerance):
    """Lower is better (e.g. clone bytes): fail above baseline*(1+tol)."""
    ceiling = baseline * (1.0 + tolerance)
    line = f"{name}: {current:.6g} vs baseline {baseline:.6g} (ceiling {ceiling:.6g})"
    if current > ceiling:
        fail(line)
    else:
        ok(line)


def check_scaling_speedup(cur, what):
    """Hard multi-core gate (see SCALING_* above); `what` names the bench."""
    cores = cur.get("cores", cur.get("hardware_concurrency", 0))
    entry = next(
        (s for s in cur.get("scaling", [])
         if s.get("threads") == SCALING_GATE_THREADS), None)
    if entry is None or "speedup_x" not in entry:
        ok(f"{what}: no threads={SCALING_GATE_THREADS} speedup recorded, "
           "scaling not gated")
        return
    speedup = entry["speedup_x"]
    if cores < SCALING_MIN_CORES:
        ok(f"{what}: {cores}-core machine — scaling not gated "
           f"(speedup@{SCALING_GATE_THREADS} threads was {speedup:.2f}x; "
           f"the >= {SCALING_MIN_SPEEDUP_X}x contract needs a "
           f">= {SCALING_MIN_CORES}-core runner)")
        return
    line = (f"{what}: speedup@{SCALING_GATE_THREADS} threads {speedup:.2f}x "
            f"on {cores} cores (floor {SCALING_MIN_SPEEDUP_X}x)")
    if speedup < SCALING_MIN_SPEEDUP_X:
        fail(line)
    else:
        ok(line)


def check_explore(cur, base, tol):
    base_runs = {r["mode"]: r for r in base["runs"]}
    for run in cur["runs"]:
        mode = run["mode"]
        if mode not in base_runs:
            ok(f"run '{mode}' has no baseline (new mode), skipping")
            continue
        b = base_runs[mode]
        if run["dedupe_mode"] != b["dedupe_mode"]:
            fail(
                f"run '{mode}' dedupe_mode {run['dedupe_mode']} != baseline "
                f"{b['dedupe_mode']} — dedupe byte counts are not comparable "
                "across modes"
            )
            continue
        check_lower_bound(
            f"{mode} states_per_sec", run["states_per_sec"],
            b["states_per_sec"], tol)
        check_upper_bound(
            f"{mode} cow_bytes_per_state", run["cow_bytes_per_state"],
            b["cow_bytes_per_state"], tol)
        if mode == COW_ABS_GATED_MODE:
            per_state = run["cow_bytes_per_state"]
            line = (f"{mode} cow_bytes_per_state {per_state:.6g} vs absolute "
                    f"ceiling {COW_BYTES_PER_STATE_ABS_MAX:g}")
            if per_state > COW_BYTES_PER_STATE_ABS_MAX:
                fail(line)
            else:
                ok(line)
        # Memory trajectory: exact allocated visited-set bytes (and, where
        # recorded, the peak in-memory frontier bytes) must not creep past
        # the baseline. Both are deterministic accounting in sequential
        # runs, not wall-clock noise, so the same tolerance gates them.
        if "visited_bytes" in run and "visited_bytes" in b:
            check_upper_bound(
                f"{mode} visited_bytes", run["visited_bytes"],
                b["visited_bytes"], tol)
        # Sequential modes only: the parallel peak depends on worker timing,
        # so its byte count is not a stable gate. Distinguish a baseline
        # that predates the field (skip — nothing to compare) from one that
        # recorded a literal 0 peak: a zero baseline would make the
        # multiplicative ceiling vacuous (0 * (1+tol) == 0 fails any real
        # run), so gate it against an absolute floor instead of silently
        # skipping and letting the peak regrow unbounded.
        if "frontier_bytes" in run and "parallel" not in mode:
            if "frontier_bytes" not in b:
                ok(f"{mode} frontier_bytes: no baseline field, skipping")
            elif b["frontier_bytes"] > 0:
                check_upper_bound(
                    f"{mode} frontier_bytes", run["frontier_bytes"],
                    b["frontier_bytes"], tol)
            elif run["frontier_bytes"] > FRONTIER_ABS_FLOOR_BYTES:
                fail(f"{mode} frontier_bytes {run['frontier_bytes']} vs "
                     f"zero baseline (absolute floor "
                     f"{FRONTIER_ABS_FLOOR_BYTES})")
            else:
                ok(f"{mode} frontier_bytes {run['frontier_bytes']} within "
                   f"absolute floor {FRONTIER_ABS_FLOOR_BYTES} "
                   "(zero baseline)")
        # Hard invariant, not a tolerance: fingerprint-mode exploration
        # must never serialize a canonical encoding (the incremental state
        # hash exists to remove exactly that cost), and neither may
        # symmetry mode, whose key is a relabeled fold of the same hash.
        if run["dedupe_mode"] in ("fingerprint", "symmetry"):
            encodings = run.get("canonical_encodings")
            if encodings is None:
                ok(f"{mode}: no canonical_encodings field (pre-hash run)")
            elif encodings != 0:
                fail(f"{mode}: {encodings} canonical encodings in "
                     f"{run['dedupe_mode']} mode (must be 0)")
            else:
                ok(f"{mode}: 0 canonical encodings")
    if not cur.get("parallel_counters_match_sequential", False):
        fail("parallel explore counters diverged from sequential")
    else:
        ok("parallel counters match sequential")
    # The --mem contract is a hard invariant: budgeted and spilling runs
    # must reproduce the unbudgeted counters exactly, and the forced-spill
    # run must actually have spilled (a spill run with zero batches means
    # the budget path silently stopped being exercised).
    if "budgeted_counters_match_sequential" in cur:
        if cur["budgeted_counters_match_sequential"]:
            ok("budgeted/spill counters match unbudgeted")
        else:
            fail("budgeted explore counters diverged from unbudgeted")
    elif "budgeted_counters_match_sequential" in base:
        fail("budgeted_counters_match_sequential missing from current run")
    cur_spill = next(
        (r for r in cur["runs"] if "spill" in r["mode"]), None)
    base_spill = next(
        (r for r in base["runs"] if "spill" in r["mode"]), None)
    if base_spill is not None:
        if cur_spill is None:
            fail("spill run missing from current bench")
        elif cur_spill.get("spill_batches", 0) < 1:
            fail("spill run recorded 0 batches — the spill path did not run")
        else:
            ok(f"spill run pushed {cur_spill['spill_batches']} batches "
               f"({cur_spill['spilled_nodes']} nodes) through disk")
    # Work-stealing scaling curve: gate per-thread-count throughput so a
    # scheduler regression at ANY width fails, not just the 1/8 endpoints.
    base_scaling = {s["threads"]: s for s in base.get("scaling", [])}
    for s in cur.get("scaling", []):
        b = base_scaling.get(s["threads"])
        if b is None:
            ok(f"scaling threads={s['threads']} has no baseline, skipping")
            continue
        check_lower_bound(
            f"scaling threads={s['threads']} states_per_sec",
            s["states_per_sec"], b["states_per_sec"], tol)
    check_scaling_speedup(cur, "explore")
    check_lower_bound(
        "cow_copy_reduction_x", cur["cow_copy_reduction_x"],
        base["cow_copy_reduction_x"], tol)
    check_reduction(cur, base, tol)
    check_peak_rss(cur, base, tol)


def check_reduction(cur, base, tol):
    """Partial-order-reduction gates.

    Hard invariants at any state cap: the reduced runs must reach the same
    ok/violation verdict as the full runs, and the reduced abd-regular
    exploration must still exhibit the pinned new-old inversion
    counterexample (a reduction that prunes it away is unsound, not slow).
    The state-count ratios are gated only when both sides of a pair covered
    their complete space — a smoke run truncates full and reduced at the
    same cap, degenerating the ratio to ~1.
    """
    red = cur.get("reduction")
    if red is None:
        if base.get("reduction") is not None:
            fail("reduction record missing from current bench")
        else:
            ok("no reduction record (pre-reduction bench), skipping")
        return
    if not red.get("verdict_match", False):
        fail("reduced explore verdict diverged from full exploration")
    else:
        ok("reduced/full verdicts match")
    if not red.get("pinned_violation_found", False):
        fail("reduced abd-regular run missed the pinned new-old inversion "
             "violation")
    else:
        ok("pinned abd-regular inversion still found under reduction")
    base_red = base.get("reduction") or {}
    for pair, floor in (("reorder", 5.0), ("n4", 5.0)):
        if not red.get(f"{pair}_both_complete", False):
            ok(f"{pair} reduction ratio not gated (truncated smoke run)")
            continue
        ratio = red.get(f"{pair}_reduction_x", 0)
        # Never regress below the committed baseline ratio (with the usual
        # tolerance), and never below the absolute floor the reductions
        # were accepted at.
        check_lower_bound(
            f"{pair} states_reduction_x", ratio,
            max(base_red.get(f"{pair}_reduction_x", floor), floor), tol)
        if ratio < floor:
            fail(f"{pair} states_reduction_x {ratio:.3g} below the "
                 f"absolute {floor}x floor")


def check_peak_rss(cur, base, tol):
    """Whole-process peak RSS: coarse, but the number that catches a change
    re-inflating memory outside the structures the engine meters exactly."""
    if "peak_rss_kb" in cur and base.get("peak_rss_kb", 0) > 0:
        check_upper_bound(
            "peak_rss_kb", cur["peak_rss_kb"], base["peak_rss_kb"], tol)


def check_fuzz(cur, base, tol):
    # Determinism is a hard invariant: a summary or minimized trace that
    # differs across thread counts is a correctness bug, not a slowdown.
    if not cur.get("thread_determinism_ok", False):
        fail("campaign summary diverged across thread counts")
    else:
        ok("campaign summaries byte-identical across thread counts")
    if not cur.get("minimize", {}).get("determinism_ok", False):
        fail("minimizer output diverged across thread counts")
    else:
        ok("minimizer deterministic across thread counts")
    if cur.get("walks") != base.get("walks"):
        ok(
            f"walk count {cur.get('walks')} != baseline {base.get('walks')} "
            "(smoke run?) — skipping throughput gates"
        )
        return
    check_lower_bound(
        "walks_per_sec", cur["walks_per_sec"], base["walks_per_sec"], tol)
    check_lower_bound(
        "minimize_probes_per_sec", cur["minimize_probes_per_sec"],
        base["minimize_probes_per_sec"], tol)
    # Per-thread-count throughput, same rationale as the explore scaling
    # gate: a pool regression at any width should fail.
    base_scaling = {s["threads"]: s for s in base.get("scaling", [])}
    for s in cur.get("scaling", []):
        b = base_scaling.get(s["threads"])
        if b is None:
            ok(f"scaling threads={s['threads']} has no baseline, skipping")
            continue
        check_lower_bound(
            f"scaling threads={s['threads']} walks_per_sec",
            s["walks_per_sec"], b["walks_per_sec"], tol)
    check_scaling_speedup(cur, "fuzz")
    # tests_run is deterministic in the input trace, so it must match the
    # baseline exactly when the pinned counterexample is unchanged.
    cur_tests = cur.get("minimize", {}).get("tests_run")
    base_tests = base.get("minimize", {}).get("tests_run")
    if base_tests is not None and cur_tests != base_tests:
        fail(f"minimize tests_run {cur_tests} != baseline {base_tests} "
             "(ddmin reduction sequence changed)")
    else:
        ok(f"minimize tests_run == {base_tests}")
    check_peak_rss(cur, base, tol)


def check_harness(cur, base, tol):
    base_cases = {c["case"]: c for c in base["cases"]}
    for case in cur["cases"]:
        name = case["case"].strip()
        b = base_cases.get(case["case"])
        if b is None:
            ok(f"case '{name}' has no baseline (new case), skipping")
            continue
        check_upper_bound(
            f"{name} cow_bytes_per_copy", case["cow_bytes_per_copy"],
            b["cow_bytes_per_copy"], tol)
    # Aggregate fork throughput: per-case wall times are microseconds-noisy,
    # but the all-cases total is stable enough to gate.
    if "world_copies_per_sec" in cur and "world_copies_per_sec" in base:
        check_lower_bound(
            "world_copies_per_sec (all cases)",
            cur["world_copies_per_sec"], base["world_copies_per_sec"], tol)
    check_peak_rss(cur, base, tol)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default="build/bench")
    ap.add_argument("--tolerance", type=float, default=0.25)
    args = ap.parse_args()

    baseline_dir = pathlib.Path(args.baseline_dir)
    current_dir = pathlib.Path(args.current_dir)

    for bench in BENCHES:
        base_path = baseline_dir / bench
        cur_path = current_dir / bench
        print(f"{bench}:")
        if not base_path.exists():
            ok("no baseline committed, skipping")
            continue
        if not cur_path.exists():
            fail(f"missing current run {cur_path} — did the bench not run?")
            continue
        base = json.loads(base_path.read_text())
        cur = json.loads(cur_path.read_text())
        if base.get("bench") == "fuzz":
            check_fuzz(cur, base, args.tolerance)
        elif "runs" in base:
            check_explore(cur, base, args.tolerance)
        else:
            check_harness(cur, base, args.tolerance)

    if failures:
        print(f"\n{len(failures)} bench regression(s) beyond the "
              f"{args.tolerance:.0%} tolerance.")
        return 1
    print("\nAll bench metrics within tolerance of the committed baselines.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
