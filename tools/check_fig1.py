#!/usr/bin/env python3
"""Independent oracle for the committed Figure 1 CSV.

Recomputes every bound cell of bench/fig1/fig1_data.csv from the paper's
closed forms in exact rational arithmetic (Python `fractions`), formats it
as the CSV does (%.10g) and compares the text. It imports nothing from
src/: N, f and the nu range come from the CSV's comment line.

  thm_b1   N/(N-f)                      Theorem B.1
  thm_41   2N/(N-f+1)                   Theorem 4.1
  thm_51   2N/(N-f+2)                   Theorem 5.1
  thm_65   v*N/(N-f+v*-1), v*=min(nu,f+1)  Theorem 6.5
  abd      f+1                          replication upper bound
  erasure  nu*N/(N-f)                   erasure-coding upper bound

The measured columns must read abd_meas = N, cas_meas = casgc_meas =
N(nu+1)/(N-2f) and ldr_meas = f+1; every *_meas cell must be at least the
largest lower bound (thm_*) in its row; thm_65 must rise strictly up to
nu = f+1 and stay constant after it.

usage: check_fig1.py [CSV]              check CSV (default: the committed one)
       check_fig1.py --self-test [CSV]  check that CSV passes and that
                                        corrupting any one cell fails
Exit status 0 when every check holds; 1 with one line per failure.
"""
import os
import re
import sys
from fractions import Fraction as F

COLUMNS = ["nu", "thm_b1", "thm_41", "thm_51", "thm_65", "abd", "erasure",
           "abd_meas", "cas_meas", "casgc_meas", "ldr_meas"]
LOWER_BOUNDS = ["thm_b1", "thm_41", "thm_51", "thm_65"]
DEFAULT_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "bench", "fig1", "fig1_data.csv")


def expected(n, f, nu):
    nu_star = min(nu, f + 1)
    cas = F(n * (nu + 1), n - 2 * f)
    return {
        "thm_b1": F(n, n - f),
        "thm_41": F(2 * n, n - f + 1),
        "thm_51": F(2 * n, n - f + 2),
        "thm_65": F(nu_star * n, n - f + nu_star - 1),
        "abd": F(f + 1),
        "erasure": F(nu * n, n - f),
        "abd_meas": F(n),
        "cas_meas": cas,
        "casgc_meas": cas,
        "ldr_meas": F(f + 1),
    }


def check(text):
    """Returns the list of failures for the CSV `text`."""
    lines = text.splitlines()
    grid = re.search(r"N=(\d+),f=(\d+),nu=(\d+):(\d+)", lines[0])
    if grid is None:
        return ["comment line names no grid N=..,f=..,nu=lo:hi: " + lines[0]]
    n, f, lo, hi = (int(g) for g in grid.groups())
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    if rows[0] != COLUMNS:
        return ["header %s, expected %s" % (",".join(rows[0]),
                                           ",".join(COLUMNS))]
    failures = []
    table = [dict(zip(COLUMNS, r)) for r in rows[1:]]
    nus = [row["nu"] for row in table]
    if nus != [str(nu) for nu in range(lo, hi + 1)]:
        failures.append("nu column %s, expected %d..%d" % (nus, lo, hi))
        return failures
    for row in table:
        nu = int(row["nu"])
        for col, value in expected(n, f, nu).items():
            want = "%.10g" % float(value)
            if row[col] != want:
                failures.append("nu=%d %s: %s, expected %s (= %s)"
                                % (nu, col, row[col], want, value))
        cells = {col: F(row[col]) for col in COLUMNS if col != "nu"}
        floor = max(cells[col] for col in LOWER_BOUNDS)
        for col in COLUMNS:
            if col.endswith("_meas") and cells[col] < floor:
                failures.append("nu=%d %s: %s is below the largest lower "
                                "bound %s" % (nu, col, row[col], floor))
    thm65 = [F(row["thm_65"]) for row in table]
    for nu, prev, cur in zip(range(lo + 1, hi + 1), thm65, thm65[1:]):
        if nu <= f + 1 and not cur > prev:
            failures.append("thm_65 does not rise from nu=%d to nu=%d"
                            % (nu - 1, nu))
        if nu > f + 1 and cur != prev:
            failures.append("thm_65 changes from nu=%d to nu=%d, past "
                            "nu = f+1 = %d" % (nu - 1, nu, f + 1))
    return failures


def self_test(text):
    """Returns failures of the oracle itself: the clean CSV must pass and
    every one-cell corruption of a value column must fail."""
    clean = check(text)
    if clean:
        return ["clean CSV fails: " + "; ".join(clean)]
    lines = text.splitlines(keepends=True)
    missed = []
    for i, line in enumerate(lines):
        if line.startswith("#") or line.startswith("nu,"):
            continue
        cells = line.rstrip("\n").split(",")
        for j in range(1, len(cells)):
            bad = list(cells)
            bad[j] = "%.10g" % (float(cells[j]) * 1.001)
            corrupted = lines[:i] + [",".join(bad) + "\n"] + lines[i + 1:]
            if not check("".join(corrupted)):
                missed.append("corrupting line %d column %s went unnoticed"
                              % (i + 1, COLUMNS[j]))
    return missed


def main(argv):
    args = [a for a in argv if a != "--self-test"]
    with open(args[0] if args else DEFAULT_CSV) as fh:
        text = fh.read()
    if "--self-test" in argv:
        failures, ok = self_test(text), "every one-cell corruption fails"
    else:
        failures, ok = check(text), "Figure 1 CSV matches the closed forms"
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("ok   " + ok)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
