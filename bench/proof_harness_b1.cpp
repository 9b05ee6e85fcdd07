// Theorem B.1, executed: for each value v in a |V|-element domain, run the
// proof's execution alpha(v) (crash f servers, write v, quiesce) against
// real algorithms and verify the injection v -> server-state vector, which
// is the entire content of the Singleton-type bound
//   sum_{i in N'} log2|S_i| >= log2|V|   for every |N'| = N - f.
//
// Also reports the measured per-server state diversity: the empirical
// counterpart of |S_i|, whose log-sum must dominate log2|V|.
#include <cmath>
#include <iostream>

#include "adversary/harness.h"
#include "bench_json.h"
#include "common/table.h"

namespace {

memu::benchjson::Json g_cases = memu::benchjson::Json::array();

void run_case(const std::string& name, const memu::adversary::SutFactory& f,
              std::size_t domain) {
  const auto rep = memu::adversary::verify_singleton_injectivity(f, domain);
  double sum_log = 0;
  for (const auto d : rep.per_server_distinct)
    sum_log += std::log2(static_cast<double>(d));
  const bool holds = sum_log + 1e-9 >= rep.bound_log2;
  std::cout << "  " << name << ": |V|=" << rep.domain
            << "  injective=" << (rep.injective ? "yes" : "NO")
            << "  probes_ok=" << (rep.probes_consistent ? "yes" : "NO")
            << "  sum_i log2(observed |S_i|) = " << sum_log
            << " >= log2|V| = " << rep.bound_log2
            << (holds ? "  HOLDS" : "  VIOLATED") << '\n';
  g_cases.push(memu::benchjson::Json::object()
                   .set("case", name)
                   .set("domain", rep.domain)
                   .set("injective", rep.injective)
                   .set("probes_consistent", rep.probes_consistent)
                   .set("sum_log2_states", sum_log)
                   .set("bound_log2", rep.bound_log2)
                   .set("holds", holds));
}

}  // namespace

int main() {
  using namespace memu::adversary;
  std::cout << "=== Theorem B.1 proof harness: injectivity of v -> "
               "(live server states) ===\n\n";
  run_case("ABD   N=5 f=2        ", abd_sut_factory(5, 2, 16), 16);
  run_case("ABD   N=7 f=3        ", abd_sut_factory(7, 3, 16), 16);
  run_case("ABD   N=5 f=2 (SWMR) ", sut_factory("abd-swmr", 5, 2, 0, 16), 16);
  run_case("CAS   N=5 f=1 k=3    ", cas_sut_factory(5, 1, 3, 18, {}), 16);
  run_case("CAS   N=7 f=2 k=3    ", cas_sut_factory(7, 2, 3, 18, {}), 16);
  run_case("CASGC N=5 f=1 k=3 d=1",
           cas_sut_factory(5, 1, 3, 18, std::size_t{1}), 16);
  run_case("GOSSIP N=5 f=2       ", gossip_sut_factory(5, 2, 16), 16);
  run_case("LDR   N=5 f=1        ", ldr_sut_factory(5, 1, 16), 16);
  run_case("STRIP N=5 f=2        ", strip_sut_factory(5, 2, 16), 16);
  std::cout << "\nEvery injection confirms the counting step of the "
               "Singleton bound on the emulated algorithms.\n";
  memu::benchjson::write(
      "proof_harness_b1",
      memu::benchjson::Json::object()
          .set("bench", "proof_harness_b1")
          .set("cases", g_cases));
  return 0;
}
