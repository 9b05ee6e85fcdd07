// Figure 1, measured companion — a thin console wrapper over the sweep
// engine's measurement helpers (src/sweep/measure.h): instead of quoting
// the analytic upper bounds, run the real algorithms in the simulator with
// nu parked (active) writes and measure peak total storage. The same
// parked_*/steady_* calls back `memu sweep --measure`, so the bench and the
// sweep CSV cannot disagree.
//
// Shape claims to reproduce:
//   * ABD (replication) is FLAT in nu at N * B value bits (the idealized
//     f+1 deployment stores the value at only f+1 of the servers; the
//     majority-quorum deployment we simulate stores it at all N — both are
//     Theta(f) when N = 2f+1).
//   * CAS/CASGC (erasure, code dimension k) grows LINEARLY in nu at
//     (nu+1) * N/k * B value bits.
//   * the crossover between them moves exactly as Section 2.3 predicts.
//
// Two configurations: Figure 1's N=21, f=10 (where k = N-2f = 1 makes
// erasure coding useless — the f ~ N/2 regime), and N=21, f=5 (k = 11,
// where erasure coding wins for small nu).
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bounds/bounds.h"
#include "common/table.h"
#include "sweep/measure.h"

namespace {

memu::benchjson::Json g_rows = memu::benchjson::Json::array();

constexpr std::size_t kValueSize = 120;  // bytes; B = 960 bits
constexpr double kB = 8.0 * kValueSize;

void run_config(std::size_t n, std::size_t f, std::size_t nu_max) {
  using namespace memu::bounds;
  using namespace memu::sweep;
  const std::size_t k = n - 2 * f;
  std::cout << "--- N=" << n << " f=" << f << " (CAS code dimension k=" << k
            << ", shard = B/" << k << ") ---\n";
  memu::Table t({"nu", "abd_meas", "cas_meas", "casgc_meas", "cas_model",
                 "erasure_ub", "thm6.5_lb"},
                12);
  const Params p{n, f, kB};
  for (std::size_t nu = 1; nu <= nu_max; ++nu) {
    const double abd_meas = parked_abd(n, f, nu, kValueSize);
    const double cas_meas = parked_cas(n, f, k, nu, std::nullopt, kValueSize);
    const double casgc_meas =
        parked_cas(n, f, k, nu, std::size_t{nu}, kValueSize);
    t.row()
        .cell(nu)
        .cell(abd_meas)
        .cell(cas_meas)
        .cell(casgc_meas)
        .cell(cas_total(p, nu, k) / kB)
        .cell(erasure_normalized(n, f, nu))
        .cell(restricted_normalized(n, f, nu));
    g_rows.push(memu::benchjson::Json::object()
                    .set("n", n)
                    .set("f", f)
                    .set("nu", nu)
                    .set("abd_measured", abd_meas)
                    .set("cas_measured", cas_meas)
                    .set("casgc_measured", casgc_meas)
                    .set("cas_model", cas_total(p, nu, k) / kB)
                    .set("erasure_ub", erasure_normalized(n, f, nu))
                    .set("thm65_lb", restricted_normalized(n, f, nu)));
  }
  t.print();
  std::cout << '\n';
}

}  // namespace

int main() {
  std::cout << "=== Figure 1, measured: peak total storage / B with nu "
               "active (parked) writes ===\n"
            << "(value bits only; metadata is the o(log|V|) term)\n\n";

  // The paper's exact parameters: f ~ N/2 forces k = 1 — coded elements are
  // full copies, so "erasure" degenerates and replication is optimal, which
  // is exactly what Theorem 6.5's plateau at f+1 says.
  run_config(21, 10, 8);

  // A regime where erasure coding genuinely helps (k = 11): CAS stores
  // (nu+1) * 21/11 * B versus ABD's flat 21 * B. The measured crossover
  // matches the analytic erasure-vs-replication crossover of Section 2.3.
  run_config(21, 5, 12);

  // Small system used throughout the test suite, for cross-checking.
  run_config(5, 1, 4);

  std::cout << "Expected shapes: abd_meas flat at N; cas_meas == cas_model "
               "== (nu+1)*N/k; measured curves bracket the analytic "
               "erasure upper bound and respect the Thm 6.5 lower bound "
               "within their liveness class.\n\n";

  // Figure 1 plots the replication line at the IDEALIZED f + 1, not at the
  // N of a majority-quorum ABD deployment. LDR (Fan-Lynch, the paper's
  // reference [13]) actually achieves it: values live on f + 1 replicas,
  // all N servers keep o(B) directory metadata.
  std::cout << "=== Idealized lines, achieved: steady-state value storage "
               "/ B after sequential writes ===\n\n";
  memu::Table t({"N", "f", "abd_meas", "ldr_meas", "fig1_abd", "strip_meas",
                 "N/(N-f)"},
                12);
  for (const auto& [n, f] : std::vector<std::pair<std::size_t, std::size_t>>{
           {5, 2}, {9, 2}, {21, 10}, {21, 5}}) {
    t.row()
        .cell(n)
        .cell(f)
        .cell(memu::sweep::steady_abd(n, f, 3, kValueSize))
        .cell(memu::sweep::steady_ldr(n, f, 3, kValueSize))
        .cell(memu::bounds::abd_ideal_normalized(f))
        .cell(memu::sweep::steady_strip(n, f, 3, kValueSize))
        .cell(memu::bounds::singleton_normalized(n, f));
  }
  t.print();
  std::cout
      << "\nldr_meas == f + 1 == Figure 1's 'ABD algorithm' line (values on "
         "f+1 replicas, metadata everywhere); plain ABD pays N because "
         "every majority-quorum server stores the value.\n"
         "strip_meas ~= N/(N-f): StripStore (optimistic coding a la [12], "
         "k = N - f with strip-on-commit) meets the per-version Singleton "
         "optimum that the paper's erasure line nu*N/(N-f) is built from — "
         "the small excess over N/(N-f) is shard padding ceil(B/8k) and, "
         "at nu active writes, it pays full values (see the parked tables "
         "above for CAS's opposite tradeoff).\n";
  memu::benchjson::write("fig1_measured_storage",
                         memu::benchjson::Json::object()
                             .set("bench", "fig1_measured_storage")
                             .set("value_bits", kB)
                             .set("rows", g_rows));
  return 0;
}
