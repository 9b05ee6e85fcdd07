#!/usr/bin/env python3
"""Diff fresh BENCH_*.json runs against the committed baselines.

Gates the bench trajectory in CI. Every check is one row of ROWS:

    (bench file, field path, rule, bound, where)

and one loop evaluates them. Rules:

    higher    current >= baseline * (1 - tolerance)   (throughput)
    lower     current <= baseline * (1 + tolerance)   (bytes, memory);
              a zero baseline uses the row's bound as the ceiling
    at_least  current >= bound                        (absolute floor)
    at_most   current <= bound                        (absolute ceiling)
    true      current is true                         (hard invariant)
    same      current == baseline                     (verdict, exact count)

A path is dotted (`reduction.verdict_match`) and may start with a list
selector on one key: `runs[mode].states_per_sec` pairs each run with the
baseline run of the same `mode`; `scaling[threads=4]` picks the one element
whose `threads` is 4. `where` conditions decide whether a row applies to a
pair; a row that does not apply prints why.

Missing fields follow one policy: absent from the baseline, the row is
skipped with an `ok ... no baseline` line; present in the baseline but
absent from the current run, the row fails.

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
import re
import sys
from typing import NamedTuple

EXPLORE = "BENCH_explore_exhaustive.json"
FUZZ = "BENCH_fuzz.json"
BENCHES = [EXPLORE, FUZZ]

failures = []

# Absolute ceiling used when a baseline recorded frontier_bytes == 0 (the
# multiplicative tolerance is vacuous at zero): 1 MiB of in-memory frontier
# nodes on spaces this small means node compression stopped working.
FRONTIER_ABS_FLOOR_BYTES = 1 << 20

# Multi-core scaling contract: parallel fuzz campaigns must deliver
# SCALING_MIN_SPEEDUP_X the serial throughput at SCALING_GATE_THREADS
# workers. It is enforced only when the runner really gave that many threads
# that many CPUs: the benches spin SCALING_GATE_THREADS busy threads and
# record the CPU-seconds accrued per wall-second as `spin_parallelism`. A
# core count from the OS is not evidence — shared runners report 4 cores and
# deliver ~2 — so a smaller machine gets a loud "not gated" line instead of
# a false failure.
SCALING_GATE_THREADS = 4
SCALING_MIN_SPEEDUP_X = 3.0
SCALING_MIN_PARALLELISM = 3.5

# Absolute ceiling on the tracked sequential CAS exploration's COW traffic:
# the slab layout (shared value payloads + ignored-delivery skip) landed it
# at ~151 B/state, and the relative tolerance alone would let it creep back
# up baseline-by-baseline. Machine-independent: it counts logical bytes
# materialized per visited state, not wall-clock.
COW_BYTES_PER_STATE_ABS_MAX = 200.0

# Partial-order reduction ratios were accepted at >= 5x and may not fall
# below that, whatever the baseline says.
REDUCTION_MIN_X = 5.0

MISSING = object()


class Row(NamedTuple):
    bench: str
    path: str
    rule: str
    bound: float = None
    where: tuple = ()


# --- where conditions -------------------------------------------------------
# Each takes (current element, baseline element, current doc, baseline doc)
# and returns None when the row applies, else the reason it does not.

def unless(reason, applies):
    return lambda *ctx: None if applies(*ctx) else reason


SAME_DEDUPE = unless(
    "dedupe_mode differs from baseline, byte counts are not comparable",
    lambda c, b, *_: c.get("dedupe_mode") == b.get("dedupe_mode"))
# Fingerprint and symmetry keys are folds of the incremental state hash;
# neither may serialize a canonical encoding.
HASHED_DEDUPE = unless(
    "exact dedupe serializes by design",
    lambda c, *_: c.get("dedupe_mode") in ("fingerprint", "symmetry"))
# A smoke run truncates full and reduced explorations at the same cap,
# degenerating the ratio to ~1.
REORDER_COMPLETE = unless(
    "truncated smoke run",
    lambda c, b, cd, bd: cd.get("reduction", {}).get("reorder_both_complete"))
N4_COMPLETE = unless(
    "truncated smoke run",
    lambda c, b, cd, bd: cd.get("reduction", {}).get("n4_both_complete"))
SAME_WALKS = unless(
    "walk count differs from baseline (smoke run?)",
    lambda c, b, cd, bd: cd.get("walks") == bd.get("walks"))
BASE_RSS_POSITIVE = unless("zero baseline",
                           lambda c, b, *_: b.get("peak_rss_kb", 0) > 0)
PARALLEL_RUNNER = unless(
    f"spin_parallelism below {SCALING_MIN_PARALLELISM}: the runner does not "
    f"give {SCALING_GATE_THREADS} threads {SCALING_GATE_THREADS} CPUs",
    lambda c, b, cd, bd:
        cd.get("spin_parallelism", 0) >= SCALING_MIN_PARALLELISM)

# --- the gate ---------------------------------------------------------------

RUN = (SAME_DEDUPE,)
SPEEDUP_AT_GATE = f"scaling[threads={SCALING_GATE_THREADS}].speedup_x"

ROWS = [
    # Explorer: per-run throughput, COW traffic and memory.
    Row(EXPLORE, "runs[mode].dedupe_mode", "same"),
    Row(EXPLORE, "runs[mode].states_per_sec", "higher", where=RUN),
    Row(EXPLORE, "runs[mode].cow_bytes_per_state", "lower", where=RUN),
    Row(EXPLORE, "runs[mode=sequential_fingerprint].cow_bytes_per_state",
        "at_most", COW_BYTES_PER_STATE_ABS_MAX, RUN),
    Row(EXPLORE, "runs[mode].visited_bytes", "lower", where=RUN),
    Row(EXPLORE, "runs[mode].frontier_bytes", "lower",
        FRONTIER_ABS_FLOOR_BYTES, RUN),
    Row(EXPLORE, "runs[mode].canonical_encodings", "at_most", 0,
        RUN + (HASHED_DEDUPE,)),
    # The --mem contract: the budgeted run reproduces the unbudgeted
    # counters.
    Row(EXPLORE, "budgeted_counters_match_sequential", "true"),
    Row(EXPLORE, "cow_copy_reduction_x", "higher"),
    Row(EXPLORE, "peak_rss_kb", "lower", where=(BASE_RSS_POSITIVE,)),
    # Partial-order reduction: sound (same verdicts, the pinned abd-regular
    # inversion still found), complete at full bounds, and still reducing.
    Row(EXPLORE, "reduction.verdict_match", "true"),
    Row(EXPLORE, "reduction.pinned_violation_found", "true"),
    Row(EXPLORE, "reduction.reorder_both_complete", "same"),
    Row(EXPLORE, "reduction.n4_both_complete", "same"),
    Row(EXPLORE, "reduction.n4_reduced_complete_under_mem", "same"),
    Row(EXPLORE, "reduction.reorder_reduction_x", "higher",
        where=(REORDER_COMPLETE,)),
    Row(EXPLORE, "reduction.reorder_reduction_x", "at_least",
        REDUCTION_MIN_X, (REORDER_COMPLETE,)),
    Row(EXPLORE, "reduction.n4_reduction_x", "higher", where=(N4_COMPLETE,)),
    Row(EXPLORE, "reduction.n4_reduction_x", "at_least", REDUCTION_MIN_X,
        (N4_COMPLETE,)),
    # Fuzz: determinism is a correctness property; throughput is compared
    # only between campaigns of the same size.
    Row(FUZZ, "thread_determinism_ok", "true"),
    Row(FUZZ, "minimize.determinism_ok", "true"),
    Row(FUZZ, "minimize.tests_run", "same"),
    Row(FUZZ, "walks_per_sec", "higher", where=(SAME_WALKS,)),
    Row(FUZZ, "minimize_probes_per_sec", "higher", where=(SAME_WALKS,)),
    Row(FUZZ, "scaling[threads].walks_per_sec", "higher",
        where=(SAME_WALKS,)),
    Row(FUZZ, SPEEDUP_AT_GATE, "at_least", SCALING_MIN_SPEEDUP_X,
        (SAME_WALKS, PARALLEL_RUNNER)),
    Row(FUZZ, "peak_rss_kb", "lower", where=(SAME_WALKS, BASE_RSS_POSITIVE)),
]


def ceiling(base, zero_base_ceiling, tol):
    """A `lower` row's ceiling. The multiplicative tolerance is vacuous at a
    zero baseline, so a row may name an absolute ceiling for that case."""
    if base == 0 and zero_base_ceiling is not None:
        return zero_base_ceiling
    return base * (1 + tol)


# rule -> (passes(current, baseline, bound, tolerance), detail text)
RULES = {
    "higher": lambda c, b, bound, tol: (
        c >= b * (1 - tol),
        f"{c:.6g} vs baseline {b:.6g} (floor {b * (1 - tol):.6g})"),
    "lower": lambda c, b, bound, tol: (
        c <= ceiling(b, bound, tol),
        f"{c:.6g} vs baseline {b:.6g} (ceiling {ceiling(b, bound, tol):.6g})"),
    "at_least": lambda c, b, bound, tol: (
        c >= bound, f"{c:.6g} (absolute floor {bound:g})"),
    "at_most": lambda c, b, bound, tol: (
        c <= bound, f"{c:.6g} (absolute ceiling {bound:g})"),
    "true": lambda c, b, bound, tol: (
        c is True, f"{json.dumps(c)} (must be true)"),
    "same": lambda c, b, bound, tol: (
        c == b, f"{json.dumps(c)} vs baseline {json.dumps(b)}"),
}


def fail(msg):
    failures.append(msg)
    print(f"  FAIL {msg}")


def ok(msg):
    print(f"  ok   {msg}")


def lookup(doc, dotted):
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return MISSING
        doc = doc[part]
    return doc


SELECTOR = re.compile(r"(\w+)\[(\w+)(?:=([^\]]*))?\]\.(.+)")


def pairs(path, cur_doc, base_doc):
    """Yields (label, current element, baseline element, field) for every
    element the path selects; an element absent on one side is MISSING."""
    m = SELECTOR.fullmatch(path)
    if m is None:
        yield path, cur_doc, base_doc, path
        return
    name, key, only, field = m.groups()

    def keyed(doc):
        els = [el for el in doc.get(name, [])
               if only is None or str(el.get(key)) == only]
        by_key = {el.get(key): el for el in els}
        if len(by_key) != len(els):
            fail(f"{name}[{key}]: two elements share a key, so one would be "
                 "compared against the other's baseline")
        return by_key

    cur, base = keyed(cur_doc), keyed(base_doc)
    if only is not None:
        yield (path, next(iter(cur.values()), MISSING),
               next(iter(base.values()), MISSING), field)
        return
    for k in [*cur, *(k for k in base if k not in cur)]:
        label = k if isinstance(k, str) else json.dumps(k)
        yield (f"{name}[{key}={label}].{field}", cur.get(k, MISSING),
               base.get(k, MISSING), field)


def evaluate(row, cur_doc, base_doc, tol):
    for label, cur, base, field in pairs(row.path, cur_doc, base_doc):
        b = MISSING if base is MISSING else lookup(base, field)
        if b is MISSING:
            ok(f"{label}: no baseline, not gated")
            continue
        if cur is MISSING:
            fail(f"{label}: missing from current run")
            continue
        reason = next((r for cond in row.where
                       if (r := cond(cur, base, cur_doc, base_doc))), None)
        if reason is not None:
            ok(f"{label}: not gated ({reason})")
            continue
        c = lookup(cur, field)
        if c is MISSING:
            fail(f"{label}: missing from current run")
            continue
        passed, detail = RULES[row.rule](c, b, row.bound, tol)
        (ok if passed else fail)(f"{label}: {row.rule} {detail}")


def check(bench, cur, base, tol):
    for row in ROWS:
        if row.bench == bench:
            evaluate(row, cur, base, tol)


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
        check(bench, json.loads(cur_path.read_text()),
              json.loads(base_path.read_text()), args.tolerance)

    if failures:
        print(f"\n{len(failures)} bench regression(s) beyond the "
              f"{args.tolerance:.0%} tolerance.")
        return 1
    print("\nAll bench metrics within tolerance of the committed baselines.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
