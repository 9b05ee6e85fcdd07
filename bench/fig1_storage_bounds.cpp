// Figure 1 regeneration (analytic series) — a thin console wrapper over the
// sweep engine: the same evaluate_bounds() that powers `memu sweep` produces
// every row here, so this bench can never drift from the sweep CSV.
//
// The paper's only figure plots normalized total-storage bounds against the
// number of active writes for N = 21, f = 10:
//   lower bounds: Theorem B.1 (N/(N-f)), Theorem 5.1 (2N/(N-f+2)),
//                 Theorem 6.5 (nu* N/(N-f+nu*-1), nu* = min(nu, f+1));
//   upper bounds: ABD (f+1), erasure-coded algorithms (nu N/(N-f)).
// We additionally print the Theorem 4.1 line (2N/(N-f+1), gossip-free) and
// the exact finite-|V| corollary values for B = 4096 to exhibit the
// o(log|V|) corrections.
#include <iostream>
#include <vector>

#include "bench_json.h"
#include "bounds/bounds.h"
#include "common/table.h"
#include "sweep/fig1.h"
#include "sweep/sweep.h"

namespace {

struct Fig1Row {
  memu::sweep::Cell cell;
  memu::sweep::BoundsRow bounds;
};

// Collects the Figure 1 series through the sweep engine's deterministic
// row stream instead of computing it locally.
class CollectSink : public memu::sweep::RowSink {
 public:
  std::vector<Fig1Row> rows;
  void row(const memu::sweep::Cell& cell, const memu::sweep::BoundsRow& b,
           const memu::sweep::MeasuredRow*) override {
    rows.push_back({cell, b});
  }
};

}  // namespace

int main() {
  using namespace memu;
  using namespace memu::bounds;

  constexpr std::size_t kN = 21, kF = 10;

  sweep::SweepOptions sopt;
  sopt.grid = sweep::figure1_grid();
  CollectSink series;
  sweep::run_sweep(sopt, series);

  std::cout << "=== Figure 1: normalized total-storage cost, N=" << kN
            << ", f=" << kF << ", |V| -> inf ===\n\n";

  Table t({"nu", "ThmB.1", "Thm4.1", "Thm5.1", "Thm6.5", "ABD", "erasure"},
          10);
  for (const auto& r : series.rows) {
    t.row()
        .cell(r.cell.nu)
        .cell(r.bounds.thm_b1)
        .cell(r.bounds.thm_41)
        .cell(r.bounds.thm_51)
        .cell(r.bounds.thm_65)
        .cell(r.bounds.abd)
        .cell(r.bounds.erasure);
  }
  t.print();

  std::cout << "\nPaper checkpoints: ThmB.1 = 21/11 = 1.909;"
            << " Thm5.1 = 42/13 = 3.231; Thm6.5 plateaus at f+1 = 11 for"
            << " nu >= 11; erasure crosses ABD between nu = 5 and 6.\n";

  // Machine-readable block for replotting the figure; same digits as the
  // committed bench/fig1/fig1_data.csv (both go through format_value).
  std::cout << "\n# CSV: nu,thm_b1,thm_41,thm_51,thm_65,abd,erasure\n";
  for (const auto& r : series.rows) {
    std::cout << r.cell.nu;
    for (const double v : {r.bounds.thm_b1, r.bounds.thm_41, r.bounds.thm_51,
                           r.bounds.thm_65, r.bounds.abd, r.bounds.erasure})
      std::cout << ',' << sweep::format_value(v);
    std::cout << '\n';
  }

  std::cout << "\n=== Exact corollary values for B = log2|V| = 4096 bits "
               "(o(log|V|) terms included) ===\n\n";
  const Params p{kN, kF, 4096};
  Table e({"bound", "total_bits", "total/B", "asymptote"}, 16);
  e.row().cell("Cor B.2").cell(singleton_total(p), 1)
      .cell(singleton_total(p) / p.log2_v)
      .cell(singleton_normalized(kN, kF));
  e.row().cell("Cor 4.2").cell(no_gossip_total(p), 1)
      .cell(no_gossip_total(p) / p.log2_v)
      .cell(no_gossip_normalized(kN, kF));
  e.row().cell("Cor 5.2").cell(universal_total(p), 1)
      .cell(universal_total(p) / p.log2_v)
      .cell(universal_normalized(kN, kF));
  for (const std::size_t nu : {1u, 4u, 11u, 16u}) {
    e.row()
        .cell("Cor 6.6 nu=" + std::to_string(nu))
        .cell(restricted_total(p, nu), 1)
        .cell(restricted_total(p, nu) / p.log2_v)
        .cell(restricted_normalized(kN, kF, nu));
  }
  e.print();

  std::cout << "\n=== MaxStorage (per-server) corollary bounds, same "
               "parameters ===\n\n";
  Table m({"bound", "max_bits", "max/B"}, 16);
  m.row().cell("Cor B.2").cell(singleton_max(p), 1).cell(singleton_max(p) /
                                                         p.log2_v);
  m.row().cell("Cor 4.2").cell(no_gossip_max(p), 1).cell(no_gossip_max(p) /
                                                         p.log2_v);
  m.row().cell("Cor 5.2").cell(universal_max(p), 1).cell(universal_max(p) /
                                                         p.log2_v);
  m.row()
      .cell("Cor 6.6 nu=11")
      .cell(restricted_max(p, 11), 1)
      .cell(restricted_max(p, 11) / p.log2_v);
  m.print();
  std::cout << "\nEvery replication-based server stores a full value "
               "(max = B >= all of the above); CAS's per-server peak is "
               "(nu+1)B/k.\n";

  benchjson::Json rows = benchjson::Json::array();
  for (const auto& r : series.rows) {
    rows.push(benchjson::Json::object()
                  .set("nu", r.cell.nu)
                  .set("thm_b1", r.bounds.thm_b1)
                  .set("thm_41", r.bounds.thm_41)
                  .set("thm_51", r.bounds.thm_51)
                  .set("thm_65", r.bounds.thm_65)
                  .set("abd", r.bounds.abd)
                  .set("erasure", r.bounds.erasure));
  }
  benchjson::write("fig1_storage_bounds",
                   benchjson::Json::object()
                       .set("bench", "fig1_storage_bounds")
                       .set("n", kN)
                       .set("f", kF)
                       .set("series", rows));
  return 0;
}
