// The committed Figure 1 reproduction artifact.
//
// `memu fig1` drives one sweep over the paper's exact
// configuration (N = 21, f = 10, nu = 1..16, B = 960) with measurement
// enabled, and writes two files into the output directory:
//
//   fig1_data.csv   one row per nu: the six analytic curves of Figure 1
//                   (Thm B.1 / 4.1 / 5.1 / 6.5 lower bounds, ABD and
//                   erasure upper bounds, all normalized by log2|V|) plus
//                   the measured columns (ABD / CAS / CASGC parked peaks,
//                   LDR steady state) from the simulator.
//   fig1_plot.gp    a gnuplot script rendering fig1.svg from the CSV.
//
// Both files are committed under bench/fig1/ and regenerated + byte-diffed
// by the fig1-artifact CI job, so their content must be a pure function of
// the repo: no timestamps, no machine info, no thread counts. The CSV
// restricts itself to columns computed with rational arithmetic and exact
// IEEE division (the asymptotic bound forms and the measured sums) —
// deliberately excluding the log2-based finite-|V| columns whose last ulp
// could differ across libm builds and break the byte-diff.
#pragma once

#include <string>

#include "common/arena.h"
#include "sweep/sweep.h"

namespace memu::sweep {

struct Fig1Options {
  std::string out_dir = "bench/fig1";
  std::size_t threads = 1;
  MemBudget mem;
};

struct Fig1Result {
  std::string csv_path;
  std::string gp_path;
  SweepStats stats;
};

// The pinned Figure 1 configuration as a grid: N=21, f=10, nu=1:16,
// logV=960 (B = 960 bits = 120-byte values, the measured payload size).
GridSpec figure1_grid();

// Runs the sweep and writes both artifact files. Throws ContractError if
// the output files cannot be opened (e.g. the directory does not exist).
Fig1Result write_figure1(const Fig1Options& opt);

}  // namespace memu::sweep
