// Batch parameter-grid sweep engine: "Figure 1 as a service".
//
// Evaluates every closed-form bound in src/bounds/ — and, with
// `measure = true`, every simulated algorithm (ABD parked, CAS/CASGC
// parked, LDR steady-state) — at every cell of a (N, f, nu, logV) grid,
// streaming one output row per valid cell. The contract stack:
//
//   * Deterministic cell -> result ordering. Rows are emitted in the
//     grid's row-major order (see grid.h) no matter how many threads
//     computed them: cells are sharded into fixed-size blocks, a bounded
//     window of blocks is evaluated in parallel through
//     engine::parallel_for, and the window is flushed to the sink in block
//     order. Every cell's value is a pure function of the cell, so the
//     output is byte-identical at any thread count — the same contract
//     the fuzz campaigns pin.
//   * Streaming, not materializing. Only the in-flight window of blocks
//     is ever resident; a hundred-million-cell sweep writes CSV at O(window)
//     memory. With --mem, the window is additionally clamped to its share
//     of the budget.
//   * One simulation per distinct config. Measured columns depend only on
//     the cell's MemoKey, and the grid is known up front, so a measured
//     sweep first lists every distinct key, simulates each once in
//     parallel, and then looks rows up in that sorted table without a lock.
//     The table must fit half of --mem or the sweep fails before any
//     output is written.
//
// Column semantics (all normalized by B = log2|V|, Figure 1's y-axis):
//   nu_star     min(nu, f + 1), Theorem 6.5's effective concurrency
//   thm_b1      N/(N-f)                    (Cor B.2, asymptotic)
//   thm_41      2N/(N-f+1)                 (Cor 4.2, f >= 2)
//   thm_51      2N/(N-f+2)                 (Cor 5.2)
//   thm_65      nu* N/(N-f+nu*-1)          (Cor 6.6)
//   abd         f + 1                      (idealized replication UB)
//   erasure     nu N/(N-f)                 (idealized erasure UB)
//   b1_exact, thm41_exact, thm51_exact, thm65_exact
//               the finite-|V| corollary totals / B, carrying the
//               o(log|V|) corrections; exact forms below Params::
//               kMaxExactLog2V, log-domain asymptotics above it
//   cas_model   (nu+1) N / k at k = N - 2f  (CAS's analytic shape)
//   abd_meas, cas_meas, casgc_meas  peak measured storage / B with nu
//               parked writes (simulator)
//   ldr_meas    steady-state storage / B after nu writes (simulator)
// A column inapplicable at a cell (e.g. thm_41 at f = 1, cas_* at
// N <= 2f) renders as an empty CSV field / omitted JSON member; in
// memory it is NaN.
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/arena.h"
#include "sweep/grid.h"

namespace memu::sweep {

// Closed-form columns of one cell; NaN = inapplicable.
struct BoundsRow {
  double nu_star = 0;
  double thm_b1 = 0, thm_41 = 0, thm_51 = 0, thm_65 = 0;
  double abd = 0, erasure = 0;
  double b1_exact = 0, thm41_exact = 0, thm51_exact = 0, thm65_exact = 0;
  double cas_model = 0;
};

// The simulation configuration a measured row is keyed on.
struct MemoKey {
  std::uint32_t n = 0, f = 0, k = 0, nu = 0, value_size = 0;

  auto operator<=>(const MemoKey&) const = default;
};

// Measured columns of one cell; NaN = inapplicable at this config.
struct MeasuredRow {
  double abd = 0, cas = 0, casgc = 0, ldr = 0;
};

// Pure closed-form evaluation of one cell (the vectorized inner loop).
BoundsRow evaluate_bounds(const Cell& c);

// The simulation config a cell maps to: value_size = ceil(logV / 8)
// clamped to the simulator minimum, k = N - 2f (0 = coding impossible).
// Distinct cells sharing a key share one simulation.
MemoKey memo_key_for(const Cell& c);

// Runs the simulations for one cell. Columns whose system constraints
// fail at this config are NaN.
MeasuredRow evaluate_measured(const Cell& c);

struct SweepOptions {
  GridSpec grid;
  bool measure = false;
  std::size_t threads = 1;
  MemBudget mem;            // 0 = unbudgeted; else key table + window shares
};

struct SweepStats {
  std::size_t cells = 0;    // grid indices visited (incl. skipped)
  std::size_t rows = 0;     // rows emitted
  std::size_t skipped = 0;  // invalid cells (N <= f)
  // Measured sweeps: misses = distinct simulation keys (each simulated
  // once), hits = measured rows served from an already simulated key, and
  // the key table's bytes. Identical at any thread count.
  std::uint64_t memo_hits = 0, memo_misses = 0;
  std::size_t memo_bytes = 0;
  double seconds = 0;
  double cells_per_sec = 0;
};

// Receives rows in deterministic grid order. `measured` is null on
// bounds-only sweeps.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void begin(const SweepOptions&) {}
  virtual void row(const Cell& cell, const BoundsRow& bounds,
                   const MeasuredRow* measured) = 0;
  virtual void end() {}
};

// Evaluates the grid and streams rows through the sink (begin / row* /
// end). Timing and memo stats land in the returned SweepStats only —
// nothing scheduling-dependent reaches the sink. Throws ContractError,
// before the sink sees anything, if a measured sweep's key table does not
// fit half of opt.mem.
SweepStats run_sweep(const SweepOptions& opt, RowSink& sink);

// Formats a double for sweep output: shortest %.10g form, empty for NaN.
// Shared by both sinks so CSV and JSON agree on every digit.
std::string format_value(double v);

// Streaming CSV: a `# memu sweep grid=... measure=...` comment, a header
// row, then one line per cell. Deliberately excludes threads, --mem, and
// timing — anything that may differ between byte-identical runs.
class CsvSink : public RowSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}
  void begin(const SweepOptions& opt) override;
  void row(const Cell& cell, const BoundsRow& bounds,
           const MeasuredRow* measured) override;

 private:
  std::ostream& out_;
};

// Streaming JSON: {"sweep":...,"grid":...,"rows":[...]} written
// incrementally; NaN columns are omitted from their row object.
class JsonSink : public RowSink {
 public:
  explicit JsonSink(std::ostream& out) : out_(out) {}
  void begin(const SweepOptions& opt) override;
  void row(const Cell& cell, const BoundsRow& bounds,
           const MeasuredRow* measured) override;
  void end() override;

 private:
  std::ostream& out_;
  bool first_ = true;
};

// Fans one sweep out to several sinks (e.g. CSV and JSON in one pass).
class MultiSink : public RowSink {
 public:
  void add(RowSink* sink) { sinks_.push_back(sink); }
  void begin(const SweepOptions& opt) override {
    for (RowSink* s : sinks_) s->begin(opt);
  }
  void row(const Cell& cell, const BoundsRow& bounds,
           const MeasuredRow* measured) override {
    for (RowSink* s : sinks_) s->row(cell, bounds, measured);
  }
  void end() override {
    for (RowSink* s : sinks_) s->end();
  }

 private:
  std::vector<RowSink*> sinks_;
};

}  // namespace memu::sweep
